/**
 * @file
 * Fault-injection and hardened-execution tests.
 *
 * The fault matrix: every FaultKind is injected into a fixed
 * single-contig workload through every recovery path of the
 * hardened dispatch engine (host/scheduler.hh) -- checksum
 * catch on inputs and outputs, watchdog reclaim of wedged and
 * vanished targets, bounded retry, unit quarantine, software
 * fallback, and (with fallback disabled) per-contig partial
 * failure.  Each scenario asserts the realigned output is bit-equal
 * to the fault-free oracle AND that the RecoveryStats counters are
 * exactly the ones that state machine predicts -- the counters are
 * the spec, not a diagnostic afterthought.
 *
 * Plus: the transparency property (an empty FaultPlan makes the
 * hardened path bit-invisible across the differential design
 * matrix), plan text round trips, the kind-"fault" corpus format,
 * and a small fault-seed fuzz sweep (tools/iracc_diff --fault-seeds
 * runs the same check over many more seeds).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "fault/fault.hh"
#include "testing/corpus.hh"
#include "testing/differential.hh"
#include "testing/workload_gen.hh"

namespace iracc {
namespace {

using difftest::DiffResult;
using difftest::ReproCase;

/** The fault matrix's fixed workload: one contig, one injector. */
const GenomeWorkload &
matrixWorkload()
{
    static GenomeWorkload wl = difftest::makeDiffGenome(1);
    return wl;
}

struct MatrixRun
{
    std::vector<Read> reads;
    RealignJobResult job;
};

MatrixRun
runBackend(std::unique_ptr<const RealignerBackend> backend)
{
    const GenomeWorkload &wl = matrixWorkload();
    MatrixRun out;
    out.reads = wl.chromosomes[0].reads;
    RealignSession session(std::move(backend), {});
    out.job = session.runContig(wl.reference,
                                wl.chromosomes[0].contig, out.reads);
    return out;
}

/** The fault-free plain accelerated oracle (shared across cases). */
const MatrixRun &
oracleRun()
{
    static MatrixRun oracle = runBackend(makeAcceleratedBackend(
        "oracle", "fault-matrix oracle", AccelConfig::paperOptimized(),
        SchedulePolicy::AsynchronousParallel));
    return oracle;
}

MatrixRun
runHardened(const std::string &plan, AccelConfig cfg = AccelConfig::paperOptimized(),
            HardenPolicy policy = {})
{
    return runBackend(makeHardenedBackend("hardened",
                                          "fault-matrix subject", cfg,
                                          FaultPlan::parse(plan),
                                          policy));
}

void
expectReadsEqual(const std::vector<Read> &got,
                 const std::vector<Read> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].pos, want[i].pos) << "read " << i;
        EXPECT_EQ(got[i].cigar.toString(), want[i].cigar.toString())
            << "read " << i;
        EXPECT_EQ(got[i].bases, want[i].bases) << "read " << i;
    }
}

void
expectStatsEqual(const RealignStats &got, const RealignStats &want)
{
    EXPECT_EQ(got.targets, want.targets);
    EXPECT_EQ(got.readsConsidered, want.readsConsidered);
    EXPECT_EQ(got.readsRealigned, want.readsRealigned);
    EXPECT_EQ(got.consensusesEvaluated, want.consensusesEvaluated);
    EXPECT_EQ(got.whd.comparisons, want.whd.comparisons);
    EXPECT_EQ(got.whd.comparisonsUnpruned,
              want.whd.comparisonsUnpruned);
    EXPECT_EQ(got.whd.offsetsEvaluated, want.whd.offsetsEvaluated);
    EXPECT_EQ(got.whd.offsetsPruned, want.whd.offsetsPruned);
}

/** Output bit-equal to the oracle; Degraded with listed contig. */
void
expectRecoveredExactly(const MatrixRun &run)
{
    expectReadsEqual(run.reads, oracleRun().reads);
    expectStatsEqual(run.job.stats, oracleRun().job.stats);
    EXPECT_EQ(run.job.status, RunStatus::Degraded);
    ASSERT_EQ(run.job.degradedContigs.size(), 1u);
    EXPECT_EQ(run.job.degradedContigs[0],
              matrixWorkload().chromosomes[0].contig);
    EXPECT_TRUE(run.job.failedContigs.empty());
    EXPECT_EQ(run.job.recovery.failedTargets, 0u);
}

TEST(HardenedPath, ZeroFaultPlanIsBitInvisible)
{
    // The transparency property over the full differential matrix:
    // for every accelerated design point, the hardened twin must
    // produce identical alignments, statistics (WhdStats bit for
    // bit), and variant calls, with status Ok and every recovery
    // counter at zero.
    const GenomeWorkload &wl = matrixWorkload();
    std::vector<Read> reads;
    for (const ChromosomeWorkload &chrom : wl.chromosomes)
        reads.insert(reads.end(), chrom.reads.begin(),
                     chrom.reads.end());
    DiffResult r = difftest::diffHardenedPipeline(wl.reference, reads);
    EXPECT_TRUE(r.ok) << "[" << r.variant << "] " << r.detail;
}

TEST(FaultMatrix, OracleIsNonTrivial)
{
    // The matrix proves nothing on an empty workload.
    EXPECT_GT(oracleRun().job.stats.targets, 0u);
    EXPECT_GT(oracleRun().job.stats.readsRealigned, 0u);
}

TEST(FaultMatrix, CorruptDmaWriteCaughtByInputChecksum)
{
    // The first device-memory write is target 0's consensus image;
    // the input CRC catches it before ir_start, no unit is blamed,
    // and one retry re-DMAs and succeeds.
    MatrixRun run = runHardened("corrupt-write@1");
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 1u);
    EXPECT_EQ(rec.faultsByKind[static_cast<size_t>(
                  FaultKind::CorruptWrite)],
              1u);
    EXPECT_EQ(rec.checksumInputCatches, 1u);
    EXPECT_EQ(rec.checksumOutputCatches, 0u);
    EXPECT_EQ(rec.watchdogCatches, 0u);
    EXPECT_EQ(rec.retries, 1u);
    EXPECT_EQ(rec.retrySuccesses, 1u);
    EXPECT_EQ(rec.softwareFallbacks, 0u);
    EXPECT_EQ(rec.quarantinedUnits, 0u);
    expectRecoveredExactly(run);
}

TEST(FaultMatrix, CorruptOutputCaughtAndUnitStruck)
{
    // One unit serializes the run: writes 1-3 are target 0's input
    // images, write 4 its OutFlags buffer.  The output CRC catches
    // the flip at the response; the unit takes a strike (below the
    // quarantine threshold) and the retry succeeds on clean writes.
    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 1;
    MatrixRun run = runHardened("corrupt-write@4", cfg);
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 1u);
    EXPECT_EQ(rec.checksumInputCatches, 0u);
    EXPECT_EQ(rec.checksumOutputCatches, 1u);
    EXPECT_EQ(rec.watchdogCatches, 0u);
    EXPECT_EQ(rec.retries, 1u);
    EXPECT_EQ(rec.retrySuccesses, 1u);
    EXPECT_EQ(rec.softwareFallbacks, 0u);
    EXPECT_EQ(rec.quarantinedUnits, 0u);
    expectRecoveredExactly(run);
}

TEST(FaultMatrix, UnitHangCaughtByWatchdogAndQuarantined)
{
    // Unit 0 accepts ir_start and freezes.  The queue drains, the
    // watchdog finds the target in Launched phase, quarantines the
    // wedged unit on the spot, and the retry lands on unit 1.
    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 2;
    MatrixRun run = runHardened("unit-hang:unit=0@1", cfg);
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 1u);
    EXPECT_EQ(rec.faultsByKind[static_cast<size_t>(
                  FaultKind::UnitHang)],
              1u);
    EXPECT_EQ(rec.checksumInputCatches, 0u);
    EXPECT_EQ(rec.checksumOutputCatches, 0u);
    EXPECT_EQ(rec.watchdogCatches, 1u);
    EXPECT_EQ(rec.retries, 1u);
    EXPECT_EQ(rec.retrySuccesses, 1u);
    EXPECT_EQ(rec.quarantinedUnits, 1u);
    EXPECT_EQ(rec.softwareFallbacks, 0u);
    expectRecoveredExactly(run);
}

TEST(FaultMatrix, DroppedResponseCaughtByWatchdogAndQuarantined)
{
    // Outputs are written but the completion response is lost; from
    // the host's side the unit is just as wedged as a hang and gets
    // the same treatment.
    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 2;
    MatrixRun run = runHardened("drop-response:unit=0@1", cfg);
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 1u);
    EXPECT_EQ(rec.faultsByKind[static_cast<size_t>(
                  FaultKind::DropResponse)],
              1u);
    EXPECT_EQ(rec.watchdogCatches, 1u);
    EXPECT_EQ(rec.quarantinedUnits, 1u);
    EXPECT_EQ(rec.retries, 1u);
    EXPECT_EQ(rec.retrySuccesses, 1u);
    EXPECT_EQ(rec.checksumInputCatches, 0u);
    EXPECT_EQ(rec.checksumOutputCatches, 0u);
    EXPECT_EQ(rec.softwareFallbacks, 0u);
    expectRecoveredExactly(run);
}

TEST(FaultMatrix, DroppedDmaBurstCaughtByInputChecksum)
{
    // Burst 1 (target 0's consensus image) vanishes; the remaining
    // bursts land and carry the launch continuation, so the input
    // CRC sees a zeroed consensus buffer and catches it.
    MatrixRun run = runHardened("dma-drop@1");
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 1u);
    EXPECT_EQ(rec.faultsByKind[static_cast<size_t>(
                  FaultKind::DmaDrop)],
              1u);
    EXPECT_EQ(rec.checksumInputCatches, 1u);
    EXPECT_EQ(rec.watchdogCatches, 0u);
    EXPECT_EQ(rec.retries, 1u);
    EXPECT_EQ(rec.retrySuccesses, 1u);
    EXPECT_EQ(rec.quarantinedUnits, 0u);
    EXPECT_EQ(rec.softwareFallbacks, 0u);
    expectRecoveredExactly(run);
}

TEST(FaultMatrix, DroppedFinalDmaBurstCaughtByWatchdog)
{
    // Burst 3 (target 0's quality image) carries the launch
    // continuation; dropping it strands the target in Dispatched
    // phase.  The watchdog reclaims it without blaming any unit --
    // no unit ever saw the target.
    MatrixRun run = runHardened("dma-drop@3");
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 1u);
    EXPECT_EQ(rec.checksumInputCatches, 0u);
    EXPECT_EQ(rec.checksumOutputCatches, 0u);
    EXPECT_EQ(rec.watchdogCatches, 1u);
    EXPECT_EQ(rec.quarantinedUnits, 0u);
    EXPECT_EQ(rec.retries, 1u);
    EXPECT_EQ(rec.retrySuccesses, 1u);
    EXPECT_EQ(rec.softwareFallbacks, 0u);
    expectRecoveredExactly(run);
}

TEST(FaultMatrix, ChannelStallIsAbsorbed)
{
    // A stall only delays completion; no data is lost, so nothing
    // needs recovering and the run stays Ok -- injected but
    // harmless, exactly what RunStatus::Ok with faultsInjected > 0
    // means.
    MatrixRun run =
        runHardened("stall:channel=pcie-dma,cycles=5000@1");
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 1u);
    EXPECT_EQ(rec.faultsByKind[static_cast<size_t>(
                  FaultKind::ChannelStall)],
              1u);
    EXPECT_FALSE(rec.anyRecovery());
    EXPECT_EQ(run.job.status, RunStatus::Ok);
    EXPECT_TRUE(run.job.degradedContigs.empty());
    expectReadsEqual(run.reads, oracleRun().reads);
    expectStatsEqual(run.job.stats, oracleRun().job.stats);
}

TEST(FaultMatrix, AllUnitsWedgedFallsBackToSoftware)
{
    // Both units wedge on their first launches: two watchdog
    // catches, two quarantines, and -- with no hardware left --
    // every target resolves on the host-side datapath model.  The
    // fallback runs the same irCompute the units model, so the
    // output is still bit-exact.
    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 2;
    MatrixRun run = runHardened("unit-hang@1;unit-hang@2", cfg);
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 2u);
    EXPECT_EQ(rec.watchdogCatches, 2u);
    EXPECT_EQ(rec.quarantinedUnits, 2u);
    EXPECT_EQ(rec.retries, 0u);
    EXPECT_EQ(rec.retrySuccesses, 0u);
    EXPECT_EQ(rec.softwareFallbacks, oracleRun().job.stats.targets);
    expectRecoveredExactly(run);
}

TEST(FaultMatrix, WedgedCardMigratesShardsAndDegrades)
{
    // A two-card fleet where every unit of card 0 wedges on its
    // first launch.  Card-granular containment: the card is
    // quarantined and its remaining targets migrate to card 1's
    // queue instead of falling back to software -- the shards ran
    // on real (modeled) hardware, just elsewhere, so the run is
    // Degraded, not Failed, and the output stays bit-exact.
    FleetConfig fc;
    fc.card = AccelConfig::paperOptimized();
    fc.card.numUnits = 2;
    fc.cards = 2;
    fc.cardPlans = {FaultPlan::parse("unit-hang@1;unit-hang@2"),
                    FaultPlan()};
    MatrixRun run = runBackend(makeHardenedBackend(
        "hardened-fleet", "wedged-card subject", fc));
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.faultsInjected, 2u);
    EXPECT_EQ(rec.watchdogCatches, 2u);
    EXPECT_EQ(rec.quarantinedUnits, 2u);
    EXPECT_EQ(rec.quarantinedCards, 1u);
    EXPECT_GT(rec.migratedTargets, 0u);
    EXPECT_EQ(rec.softwareFallbacks, 0u);
    expectRecoveredExactly(run);

    // The dispatch accounting tells the same story: card 1 absorbs
    // exactly the migrated targets on top of its own home shards,
    // and everything completes on one of the two cards.
    ASSERT_EQ(run.job.fleet.cards.size(), 2u);
    EXPECT_EQ(run.job.fleet.migrations(), rec.migratedTargets);
    EXPECT_EQ(run.job.fleet.cards[1].migrations,
              rec.migratedTargets);
    EXPECT_EQ(run.job.fleet.cards[0].targets +
                  run.job.fleet.cards[1].targets,
              run.job.stats.targets);
}

TEST(FaultMatrix, RetryExhaustionFallsBackToSoftware)
{
    // Every device-memory write is corrupted, so every hardware
    // attempt of every target dies at the input checksum.  Each
    // target burns maxAttempts (3) attempts -- 3 catches and 2
    // retries -- then falls back.  No unit is ever blamed: the
    // corruption is on the DMA path, before any unit runs.
    MatrixRun run = runHardened("corrupt-write:repeat=1@1");
    const RecoveryStats &rec = run.job.recovery;
    const uint64_t targets = oracleRun().job.stats.targets;
    EXPECT_EQ(rec.checksumInputCatches, 3 * targets);
    EXPECT_EQ(rec.retries, 2 * targets);
    EXPECT_EQ(rec.retrySuccesses, 0u);
    EXPECT_EQ(rec.softwareFallbacks, targets);
    EXPECT_EQ(rec.quarantinedUnits, 0u);
    EXPECT_EQ(rec.watchdogCatches, 0u);
    // Three corrupted input writes per caught attempt.
    EXPECT_EQ(rec.faultsInjected, 3 * rec.checksumInputCatches);
    expectRecoveredExactly(run);
}

TEST(FaultMatrix, FallbackDisabledFailsTheContig)
{
    // Same exhaustion, but the policy forbids the software
    // fallback: every target resolves as a no-op, the contig is
    // reported Failed, and the job still completes instead of
    // aborting -- partial failure is a result, not a crash.
    HardenPolicy policy;
    policy.softwareFallback = false;
    MatrixRun run = runHardened("corrupt-write:repeat=1@1",
                                AccelConfig::paperOptimized(), policy);
    const RecoveryStats &rec = run.job.recovery;
    EXPECT_EQ(rec.failedTargets, oracleRun().job.stats.targets);
    EXPECT_EQ(rec.softwareFallbacks, 0u);
    EXPECT_EQ(run.job.status, RunStatus::Failed);
    ASSERT_EQ(run.job.failedContigs.size(), 1u);
    EXPECT_EQ(run.job.failedContigs[0],
              matrixWorkload().chromosomes[0].contig);
    // No-op decisions leave every read where it was.
    EXPECT_EQ(run.job.stats.readsRealigned, 0u);
    EXPECT_GT(oracleRun().job.stats.readsRealigned, 0u);
}

TEST(FaultPlanFormat, DescribeParseRoundTrip)
{
    const std::string text =
        "corrupt-write:bit=5@3;stall:channel=ddr0,cycles=4096@1;"
        "unit-hang:unit=2@1;drop-response:unit=7,repeat=4@2;"
        "dma-drop@9";
    FaultPlan plan = FaultPlan::parse(text);
    ASSERT_EQ(plan.specs.size(), 5u);
    EXPECT_EQ(plan.describe(), text);
    // Round trip again through the canonical form.
    EXPECT_EQ(FaultPlan::parse(plan.describe()).describe(), text);
}

TEST(FaultPlanFormat, RandomPlansAreSeedDeterministic)
{
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        FaultPlan a = FaultPlan::random(seed);
        FaultPlan b = FaultPlan::random(seed);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
        // And the text form round-trips.
        EXPECT_EQ(FaultPlan::parse(a.describe()).describe(),
                  a.describe())
            << "seed " << seed;
    }
}

TEST(FaultCorpus, FaultReproCaseRoundTrip)
{
    ReproCase repro;
    repro.kind = "fault";
    repro.seed = 11;
    repro.variant = "hardened[dma-drop@3]";
    repro.detail = "synthetic round-trip case";
    repro.faultPlan = "dma-drop@3;corrupt-write:bit=9@1";
    repro.reference.addContig("c1", "ACGTACGTACGTACGTACGT");
    Read r;
    r.name = "r1";
    r.contig = 0;
    r.pos = 4;
    r.bases = "ACGTAC";
    r.quals = {30, 31, 32, 33, 34, 35};
    r.cigar = Cigar::simpleMatch(6);
    repro.reads = {r};

    std::stringstream ss;
    difftest::writeReproCase(ss, repro);
    ReproCase back = difftest::readReproCase(ss);

    EXPECT_EQ(back.kind, "fault");
    EXPECT_EQ(back.faultPlan, repro.faultPlan);
    EXPECT_EQ(back.variant, repro.variant);
    ASSERT_EQ(back.reads.size(), 1u);
    EXPECT_EQ(back.reads[0].bases, "ACGTAC");
    // The parsed plan is usable as-is.
    EXPECT_EQ(FaultPlan::parse(back.faultPlan).specs.size(), 2u);
}

TEST(FaultFuzz, RandomFaultSeedSweep)
{
    // The same check tools/iracc_diff --fault-seeds runs at scale:
    // a random fault schedule against a random workload must leave
    // the output bit-equal to the fault-free oracle.
    for (uint64_t seed = 1; seed <= 2; ++seed) {
        DiffResult r = difftest::diffFaultSeed(seed);
        EXPECT_TRUE(r.ok) << "[" << r.variant << "] " << r.detail;
    }
}

TEST(FaultChecksum, Crc32ChainsOverConcatenation)
{
    // The hardened path checksums multi-buffer images by chaining;
    // chaining must equal the CRC of the concatenation.
    const uint8_t a[] = {1, 2, 3, 4, 5};
    const uint8_t b[] = {250, 0, 17};
    uint8_t cat[8];
    for (size_t i = 0; i < 5; ++i)
        cat[i] = a[i];
    for (size_t i = 0; i < 3; ++i)
        cat[5 + i] = b[i];
    EXPECT_EQ(crc32(b, sizeof(b), crc32(a, sizeof(a))),
              crc32(cat, sizeof(cat)));
    // And a single bit flip never goes unnoticed.
    cat[6] ^= 0x40;
    EXPECT_NE(crc32(cat, sizeof(cat)),
              crc32(b, sizeof(b), crc32(a, sizeof(a))));
}

} // namespace
} // namespace iracc
