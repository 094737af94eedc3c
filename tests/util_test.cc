/**
 * @file
 * Tests for the util library: RNG determinism and distributions,
 * the geometric mean, thread pool, table rendering, and strict
 * command-line numeric parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "util/argparse.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace iracc {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    const int n = 20000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal(10.0, 3.0);
        sum += v;
        sum_sq += v * v;
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 3.0, 0.1);
}

TEST(Rng, ZipfIsSkewedAndBounded)
{
    Rng rng(17);
    uint64_t rank1 = 0, total = 20000;
    for (uint64_t i = 0; i < total; ++i) {
        uint64_t r = rng.zipf(100, 1.5);
        ASSERT_GE(r, 1u);
        ASSERT_LE(r, 100u);
        rank1 += r == 1 ? 1 : 0;
    }
    // Rank 1 should dominate heavily under Zipf s=1.5.
    EXPECT_GT(static_cast<double>(rank1) /
                  static_cast<double>(total),
              0.25);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(19);
    double p = 0.25;
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.1);
}

TEST(Rng, StreamIsPureFunctionOfKeys)
{
    // Same (seed, a, b) -> identical stream, regardless of when or
    // in what order streams are created (the property the parallel
    // RealignJob relies on for reproducible multithreaded runs).
    Rng s1 = Rng::stream(42, 7, 3);
    Rng junk = Rng::stream(42, 999, 1); // interleaved creation
    (void)junk.next();
    Rng s2 = Rng::stream(42, 7, 3);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(s1.next(), s2.next());
}

TEST(Rng, StreamKeysDecorrelate)
{
    // Distinct seeds or stream keys must yield distinct streams,
    // including single-bit key changes.
    const std::pair<uint64_t, uint64_t> keys[] = {
        {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {21, 5}, {22, 5}};
    std::set<uint64_t> firsts;
    for (const auto &k : keys) {
        firsts.insert(Rng::stream(42, k.first, k.second).next());
        firsts.insert(Rng::stream(43, k.first, k.second).next());
    }
    EXPECT_EQ(firsts.size(), 2 * (sizeof(keys) / sizeof(keys[0])));

    Rng a = Rng::stream(42, 7, 0);
    Rng b = Rng::stream(42, 7, 1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, StreamChanceIsUniform)
{
    // chance(p) over many per-key streams hits ~p, so fractional
    // work amplification re-runs the intended share of targets.
    int hits = 0;
    for (uint64_t t = 0; t < 10000; ++t)
        hits += Rng::stream(42, 21, t).chance(0.5) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(21);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(orig.begin(), orig.end());
    EXPECT_EQ(a, b);
}

TEST(Geomean, KnownValues)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleIsABarrier)
{
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&done] { ++done; });
    pool.waitIdle();
    EXPECT_EQ(done.load(), 50);
}

TEST(Table, RenderAligned)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
}

// ---- Strict argument parsing (util/argparse) ---------------------
//
// The CLI bugfix contract: numeric flags must parse the whole
// token or fail -- atoi-family parsing accepted "--cards abc" as 0
// and "--job-threads -1" as a huge unsigned, and both reached the
// fleet/thread-pool constructors unvalidated.

TEST(ArgParse, ParseInt64AcceptsWholeTokensOnly)
{
    int64_t v = 0;
    EXPECT_TRUE(parseInt64("42", &v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt64("-7", &v));
    EXPECT_EQ(v, -7);
    EXPECT_TRUE(parseInt64("0x10", &v));
    EXPECT_EQ(v, 16);

    EXPECT_FALSE(parseInt64("", &v));
    EXPECT_FALSE(parseInt64("abc", &v));
    EXPECT_FALSE(parseInt64("12abc", &v));
    EXPECT_FALSE(parseInt64("12 ", &v));
    EXPECT_FALSE(parseInt64(" 12", &v));
    EXPECT_FALSE(parseInt64("1e3", &v));
    // Overflow must fail, not saturate silently.
    EXPECT_FALSE(parseInt64("99999999999999999999999", &v));
}

TEST(ArgParse, ParseUint64RejectsNegatives)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseUint64("18446744073709551615", &v));
    EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
    // strtoull would happily wrap "-1" to UINT64_MAX.
    EXPECT_FALSE(parseUint64("-1", &v));
    EXPECT_FALSE(parseUint64("", &v));
    EXPECT_FALSE(parseUint64("1.5", &v));
}

TEST(ArgParse, ParseDoubleRejectsJunkAndNonFinite)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble("2.5", &v));
    EXPECT_DOUBLE_EQ(v, 2.5);
    EXPECT_TRUE(parseDouble("1e-3", &v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    EXPECT_FALSE(parseDouble("abc", &v));
    EXPECT_FALSE(parseDouble("2.5x", &v));
    EXPECT_FALSE(parseDouble("", &v));
    EXPECT_FALSE(parseDouble("inf", &v));
    EXPECT_FALSE(parseDouble("nan", &v));
}

TEST(ArgParse, BagParsesPairsAndBareSwitches)
{
    const char *argv[] = {"tool", "cmd",    "--port", "7733",
                          "--wait", "--out", "x.sam"};
    ArgParser args(7, const_cast<char **>(argv), 2, "tool");
    EXPECT_EQ(args.getInt("--port", 0, 1, 65535), 7733);
    EXPECT_TRUE(args.getFlag("--wait", false));
    EXPECT_EQ(args.get("--out", ""), "x.sam");
    EXPECT_FALSE(args.has("--missing"));
    EXPECT_EQ(args.getInt("--missing", 9), 9);
}

using ArgParseDeath = ::testing::Test;

TEST(ArgParseDeath, MalformedIntegerExitsWithUsageError)
{
    const char *argv[] = {"tool", "--cards", "abc"};
    ArgParser args(3, const_cast<char **>(argv), 1, "tool");
    EXPECT_EXIT(args.getInt("--cards", 1, 1, 64),
                ::testing::ExitedWithCode(2), "expects an integer");
}

TEST(ArgParseDeath, OutOfRangeValueExitsWithUsageError)
{
    const char *argv[] = {"tool", "--job-threads", "-1"};
    ArgParser args(3, const_cast<char **>(argv), 1, "tool");
    EXPECT_EXIT(args.getInt("--job-threads", 1, 1, 1024),
                ::testing::ExitedWithCode(2), "out of range");
}

TEST(ArgParseDeath, NonOptionTokenExitsWithUsageError)
{
    const char *argv[] = {"tool", "oops"};
    EXPECT_EXIT(ArgParser(2, const_cast<char **>(argv), 1, "tool"),
                ::testing::ExitedWithCode(2), "expected --option");
}


TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.583, 1), "58.3%");
    EXPECT_EQ(Table::speedup(81.32, 1), "81.3x");
}

} // namespace
} // namespace iracc
