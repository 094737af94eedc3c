/**
 * @file
 * AVX2 implementations of the WHD offset sweep.  Compiled with
 * per-function target attributes so the translation unit builds
 * under the project's baseline flags; the dispatch layer routes here
 * only after CPUID reports AVX2.  The correctness argument for
 * bit-equal results and counters is notes 1-4 in whd_simd.cc;
 * tests/whd_test.cc and the differential harness referee the
 * equality against the scalar reference sweep there.
 */

#include "realign/whd_simd.hh"

#if IRACC_WHD_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

#include "realign/limits.hh"
#include "realign/whd.hh"

#define IRACC_AVX2 __attribute__((target("avx2")))

namespace iracc {

namespace {

/** Exact WHD of a single offset (scalar tail of the lane sweep). */
uint32_t
offsetWhdTail(const uint8_t *cons_k, const uint8_t *read,
              const uint8_t *qual, size_t n)
{
    uint64_t sum = 0;
    for (size_t p = 0; p < n; ++p)
        sum += (cons_k[p] != read[p]) ? qual[p] : 0;
    return sum > kWhdMax ? kWhdMax : static_cast<uint32_t>(sum);
}

/**
 * Accumulate 16 offset lanes over the full read.  Per base p the 16
 * consensus bytes the lanes need are the contiguous run
 * cons_k0[p..p+15]; read/qual bytes are broadcast.  Quality adds
 * stay in 16-bit lanes for <= 256 bases (256 * 255 < 2^16), spill to
 * 32-bit every chunk, and to the 64-bit output every 2^23 bases
 * (2^15 chunks * 65280 < 2^32).
 */
IRACC_AVX2 void
unprunedLanes16(const uint8_t *cons_k0, const uint8_t *read,
                const uint8_t *qual, size_t n, uint64_t acc[16])
{
    const __m256i zero = _mm256_setzero_si256();
    for (size_t l = 0; l < 16; ++l)
        acc[l] = 0;
    size_t p = 0;
    while (p < n) {
        const size_t superEnd =
            std::min(n, p + (static_cast<size_t>(1) << 23));
        __m256i acc32lo = zero;
        __m256i acc32hi = zero;
        while (p < superEnd) {
            const size_t chunkEnd = std::min(superEnd, p + 256);
            __m256i acc16 = zero;
            for (; p < chunkEnd; ++p) {
                const __m128i cb = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(cons_k0 + p));
                const __m256i c16 = _mm256_cvtepu8_epi16(cb);
                const __m256i r16 =
                    _mm256_set1_epi16(static_cast<short>(read[p]));
                const __m256i q16 =
                    _mm256_set1_epi16(static_cast<short>(qual[p]));
                const __m256i eq = _mm256_cmpeq_epi16(c16, r16);
                acc16 = _mm256_add_epi16(
                    acc16, _mm256_andnot_si256(eq, q16));
            }
            acc32lo = _mm256_add_epi32(
                acc32lo,
                _mm256_cvtepu16_epi32(_mm256_castsi256_si128(acc16)));
            acc32hi = _mm256_add_epi32(
                acc32hi, _mm256_cvtepu16_epi32(
                             _mm256_extracti128_si256(acc16, 1)));
        }
        alignas(32) uint32_t part[16];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(part),
                            acc32lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(part + 8),
                            acc32hi);
        for (size_t l = 0; l < 16; ++l)
            acc[l] += part[l];
    }
}

/**
 * Per-byte mismatch qualities of the 32-byte window at @p c: q where
 * the bases differ, 0 where they match.
 */
IRACC_AVX2 inline __m256i
contrib32(const uint8_t *c, const uint8_t *r, const uint8_t *q)
{
    const __m256i cv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(c));
    const __m256i rv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(r));
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(q));
    return _mm256_andnot_si256(_mm256_cmpeq_epi8(cv, rv), qv);
}

/** Horizontal byte sum: SAD against zero gives four 64-bit sums. */
IRACC_AVX2 inline uint32_t
byteSum32(__m256i v)
{
    const __m256i sad = _mm256_sad_epu8(v, _mm256_setzero_si256());
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(sad),
                                    _mm256_extracti128_si256(sad, 1));
    return static_cast<uint32_t>(_mm_cvtsi128_si64(s) +
                                 _mm_extract_epi64(s, 1));
}

/**
 * Mismatch-quality sum of the last @p len (< 32) bases of the
 * 32-byte window at @p c: one overlapping load with the lanes in
 * front of the range (already summed) masked out.
 */
IRACC_AVX2 inline uint32_t
tailSum32(const uint8_t *c, const uint8_t *r, const uint8_t *q,
          size_t len)
{
    // Keep lane i iff i >= 32 - len.
    const __m256i lane = _mm256_setr_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
        18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
    const __m256i keep = _mm256_cmpgt_epi8(
        lane, _mm256_set1_epi8(static_cast<char>(31 - len)));
    return byteSum32(_mm256_and_si256(contrib32(c, r, q), keep));
}

/**
 * Mismatch-quality sum of bases [a, b) of one offset (@p c points
 * at the offset's first consensus byte).  A partial last block
 * ending at b >= 32 is one overlapping window [b - 32, b), which
 * stays inside the read; only ranges ending before base 32 run
 * scalar.
 */
IRACC_AVX2 inline uint32_t
rangeSum(const uint8_t *c, const uint8_t *r, const uint8_t *q,
         size_t a, size_t b)
{
    uint32_t sum = 0;
    for (; a + 32 <= b; a += 32)
        sum += byteSum32(contrib32(c + a, r + a, q + a));
    if (a == b)
        return sum;
    if (b >= 32)
        return sum + tailSum32(c + b - 32, r + b - 32, q + b - 32,
                               b - a);
    for (; a < b; ++a)
        sum += q[a] * (c[a] != r[a]);
    return sum;
}

/** Bases per block sum of prunedOffset (one 32-byte vector). */
constexpr size_t kWhdPruneBlock = 32;

/**
 * One offset of the per-comparison pruned sweep: branchless block
 * sums, and a scalar rescan of the block whose end-of-block sum
 * crosses the running minimum to recover the exact abort
 * comparison.  Used where the offset lanes cannot run (see
 * sweepPrunedPerComparison).
 */
IRACC_AVX2 void
prunedOffset(const uint8_t *cons_k, const uint8_t *read,
             const uint8_t *qual, size_t n, size_t k,
             WhdSweepResult &r)
{
    uint64_t whd = 0;
    for (size_t chunk = 0; chunk < n; chunk += kWhdPruneBlock) {
        const size_t end = std::min(n, chunk + kWhdPruneBlock);
        const uint32_t bs = rangeSum(cons_k, read, qual, chunk, end);
        if (r.best != kWhdInfinity && whd + bs >= r.best) {
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
 * Sixteen offsets k0..k0+15 of the per-comparison pruned sweep, one
 * u16 lane each, against a fixed running minimum @p best
 * (finite, n <= kMaxReadLen so lane sums stay exact).  Per base p
 * the lanes need the contiguous consensus run cons_k0[p..p+15];
 * read/qual bytes are broadcast.  A lane counts the comparison while
 * it is alive and dies once its sum reaches best -- exactly the
 * scalar abort point, so a dead lane's count is the scalar p + 1.
 * Stops as soon as every lane is dead.
 *
 * @return the first lane that survived all n bases (its sum is
 *         then below best), or 16 if none did; @p count / @p sum
 *         hold every lane's comparisons and WHD.
 */
IRACC_AVX2 size_t
prunedLanes16(const uint8_t *cons_k0, const uint8_t *read,
              const uint8_t *qual, size_t n, uint32_t best,
              uint16_t count[16], uint16_t sum[16])
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i bound =
        _mm256_set1_epi16(static_cast<short>(best));
    __m256i alive = _mm256_cmpeq_epi16(zero, zero);
    __m256i acc = zero;
    __m256i cnt = zero;
    for (size_t p = 0; p < n; ++p) {
        const __m256i c16 = _mm256_cvtepu8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(cons_k0 + p)));
        const __m256i eq = _mm256_cmpeq_epi16(
            c16, _mm256_set1_epi16(static_cast<short>(read[p])));
        acc = _mm256_adds_epu16(
            acc, _mm256_andnot_si256(
                     eq, _mm256_set1_epi16(
                             static_cast<short>(qual[p]))));
        // alive lanes are all-ones (-1): subtracting counts them.
        cnt = _mm256_sub_epi16(cnt, alive);
        // acc >= best  <=>  best -sat acc == 0 (unsigned).
        const __m256i reached = _mm256_cmpeq_epi16(
            _mm256_subs_epu16(bound, acc), zero);
        alive = _mm256_andnot_si256(reached, alive);
        if (_mm256_testz_si256(alive, alive))
            break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(count), cnt);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(sum), acc);
    // Two mask bits per u16 lane.
    const uint32_t bits =
        static_cast<uint32_t>(_mm256_movemask_epi8(alive));
    return bits ? __builtin_ctz(bits) / 2 : 16;
}

/**
 * Pruned sweep, per-comparison (software) semantics.  Offsets run
 * sixteen at a time in prunedLanes16.  A surviving lane is the new
 * minimum: the lanes before it are committed, best/bestK move to
 * it, and the block restarts just past it so the later lanes are
 * judged against the lower bound.  The first offset (no minimum
 * yet), reads longer than the u16 lanes hold, and the last < 16
 * offsets (a 16-byte load would run past the consensus) go through
 * prunedOffset.
 */
IRACC_AVX2 WhdSweepResult
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
            offsets - k < 16) {
            prunedOffset(cons + k, read, qual, n, k, r);
            ++k;
            continue;
        }
        alignas(32) uint16_t count[16];
        alignas(32) uint16_t sum[16];
        const size_t pruned = prunedLanes16(cons + k, read, qual, n,
                                            r.best, count, sum);
        for (size_t l = 0; l < pruned; ++l)
            r.comparisons += count[l];
        r.offsetsPruned += pruned;
        if (pruned == 16) {
            k += 16;
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
 * Pruned sweep, per-chunk (hardware datapath) semantics: the
 * minimum check and the counters tick at pruneChunk granularity.
 * One offset at a time: nothing can exit inside a chunk, so lanes
 * over offsets would only add work.
 */
IRACC_AVX2 WhdSweepResult
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

} // anonymous namespace

IRACC_AVX2 WhdSweepResult
whdSweepUnprunedAvx2(const uint8_t *cons, size_t m,
                     const uint8_t *read, const uint8_t *qual,
                     size_t n)
{
    WhdSweepResult r;
    const size_t offsets = m - n + 1;
    uint64_t acc[16];
    size_t k0 = 0;
    for (; k0 + 16 <= offsets; k0 += 16) {
        unprunedLanes16(cons + k0, read, qual, n, acc);
        for (size_t l = 0; l < 16; ++l) {
            const uint32_t v = acc[l] > kWhdMax
                                   ? kWhdMax
                                   : static_cast<uint32_t>(acc[l]);
            // Strict <: first minimal offset wins (ascending k).
            if (v < r.best) {
                r.best = v;
                r.bestK = static_cast<uint32_t>(k0 + l);
            }
        }
    }
    // Scalar tail: a full 16-lane block would read past the
    // consensus.
    for (; k0 < offsets; ++k0) {
        const uint32_t v = offsetWhdTail(cons + k0, read, qual, n);
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k0);
        }
    }
    return r;
}

WhdSweepResult
whdSweepPrunedAvx2(const uint8_t *cons, size_t m,
                   const uint8_t *read, const uint8_t *qual,
                   size_t n, uint32_t pruneChunk)
{
    if (pruneChunk == 1)
        return sweepPrunedPerComparison(cons, m, read, qual, n);
    return sweepPrunedPerChunk(cons, m, read, qual, n, pruneChunk);
}

} // namespace iracc

#endif // IRACC_WHD_HAVE_AVX2
