/**
 * @file
 * The public realignment API: a uniform backend interface over the
 * software baselines and the simulated accelerated system, plus a
 * string-keyed registry mirroring the systems compared in the
 * paper's evaluation:
 *
 *   "gatk3"            GATK3-style software, 8 threads, no pruning,
 *                      JVM work model on the scalar WHD kernel
 *                      (the paper's main baseline)
 *   "gatk3-1t"         same, single-threaded
 *   "adam"             optimized software baseline (ADAM stand-in):
 *                      pruning enabled, 8 threads, JVM work model
 *                      on the scalar WHD kernel
 *   "native"           tuned native software: pruning, 8 threads,
 *                      fastest WHD kernel the CPU supports
 *   "iracc"            the full accelerated system: 32 units,
 *                      32-wide data parallel, pruning, async
 *                      scheduling (paper "IR ACC")
 *   "iracc-taskp"      32 scalar units, synchronous batches
 *                      (paper "IRAcc-TaskP")
 *   "iracc-taskp-async" 32 scalar units, async scheduling
 *                      (paper "IRAcc-TaskP-Async")
 *   "hls"              the SDAccel/HLS build: 16 units, scalar, no
 *                      pruning (paper Section V-B)
 *
 * Every backend is a bundle of stage-pipeline pieces (see
 * core/stage_pipeline.hh): all backends share Plan / Prepare /
 * Apply and differ only in the Execute stage they provide.  The
 * per-contig realignContig call is a thin shim over a one-contig
 * RealignJob (core/realign_job.hh); genome-wide callers should
 * use a RealignSession directly.
 */

#ifndef IRACC_CORE_REALIGNER_API_HH
#define IRACC_CORE_REALIGNER_API_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/stage_pipeline.hh"
#include "genomics/read.hh"
#include "genomics/reference.hh"
#include "host/scheduler.hh"
#include "realign/realigner.hh"
#include "sim/perf_monitor.hh"

namespace iracc {

/** Uniform realignment backend: a named Execute-stage factory. */
class RealignerBackend
{
  public:
    virtual ~RealignerBackend() = default;

    /** Short registry name, e.g. "gatk3". */
    virtual std::string name() const = 0;

    /** Human-readable description for reports. */
    virtual std::string description() const = 0;

    /** Target-creation knobs shared by all stages. */
    virtual TargetCreationParams targetParams() const { return {}; }

    /**
     * Create this backend's Execute stage for one contig.
     *
     * @param concurrent_contigs number of contigs the caller runs
     *        concurrently; backends with internal target-level
     *        threading divide their worker count by it so a
     *        parallel RealignJob does not oversubscribe the host.
     *        Results are identical either way.
     */
    virtual std::unique_ptr<ExecuteStage>
    makeExecuteStage(uint32_t concurrent_contigs = 1) const = 0;

    /** Host-side threads available for the Prepare stage. */
    virtual uint32_t hostThreads() const { return 1; }

    /**
     * Provisioned fleet shape, for accelerated backends; null for
     * software backends (no device).  Post-mortem bundles record
     * the shape and the per-card FaultPlans from it.
     */
    virtual const FleetConfig *fleetShape() const { return nullptr; }

    /**
     * Realign one contig's reads in place -- a thin shim that
     * drives a one-contig staged pipeline (Plan -> Prepare ->
     * Execute -> Apply).  Genome-wide callers should prefer
     * RealignSession (core/realign_job.hh).
     */
    BackendRunResult realignContig(const ReferenceGenome &ref,
                                   int32_t contig,
                                   std::vector<Read> &reads) const;
};

/**
 * Create a backend by registry name; fatal() on unknown names.
 *
 * @param perf_counters collect simulator performance counters
 * @param perf_trace    also record timeline trace events
 * @param cards         accelerator cards to provision (fatal() for
 *                      software backends when > 1 -- there is no
 *                      fleet to scale)
 * @param stealing      cross-card work stealing (fleet only)
 *
 * The perf flags are honoured by the accelerated backends only;
 * the software baselines have no simulator to instrument and
 * ignore them.
 */
std::unique_ptr<RealignerBackend> makeBackend(
    const std::string &name, bool perf_counters = false,
    bool perf_trace = false, uint32_t cards = 1,
    bool stealing = true);

/**
 * Create a software backend with an explicit configuration (for
 * ablations and tests that sweep non-registry design points).
 */
std::unique_ptr<RealignerBackend> makeSoftwareBackend(
    std::string name, std::string description,
    SoftwareRealignerConfig config);

/**
 * Create an accelerated backend with an explicit configuration
 * (for ablations and tests that sweep non-registry design points;
 * the AccelConfig's perfCounters/perfTrace flags are honoured).
 */
std::unique_ptr<RealignerBackend> makeAcceleratedBackend(
    std::string name, std::string description, AccelConfig config,
    SchedulePolicy policy);

/**
 * Create an accelerated backend over an explicit card fleet: the
 * backend owns one shared CardFleet and every contig's Execute
 * stage draws a lease from it.  Results are bit-identical to the
 * single-card shape for any (cards, stealing); only the modeled
 * timing and the `fleet.*` accounting change.  With @p harden set
 * the dispatch engine runs hardened (host/scheduler.hh), with
 * FleetConfig::cardPlans attached to the cards' fault hooks; a
 * fault-free hardened run is bit- and cycle-identical to a plain
 * one.
 */
std::unique_ptr<RealignerBackend> makeAcceleratedBackend(
    std::string name, std::string description, FleetConfig fleet,
    SchedulePolicy policy,
    std::optional<HardenPolicy> harden = std::nullopt);

/** Hardened single-card backend with @p plan on its fault hooks
 *  (asynchronous scheduling). */
std::unique_ptr<RealignerBackend> makeHardenedBackend(
    std::string name, std::string description, AccelConfig config,
    FaultPlan plan = {}, HardenPolicy policy = {});

/** Hardened backend over an explicit card fleet (asynchronous
 *  scheduling; per-card plans in FleetConfig::cardPlans). */
std::unique_ptr<RealignerBackend> makeHardenedBackend(
    std::string name, std::string description, FleetConfig fleet,
    HardenPolicy policy = {});

/**
 * Hardened variant of a registry backend: its accelerated
 * configuration and scheduling policy, hardened.  fatal() on
 * software names -- there is no device to harden.  @p cards /
 * @p stealing provision a multi-card fleet; @p plan attaches to
 * card 0 (use the FleetConfig overload for per-card schedules).
 */
std::unique_ptr<RealignerBackend> makeHardenedBackend(
    const std::string &name, bool perf_counters, bool perf_trace,
    FaultPlan plan = {}, HardenPolicy policy = {},
    uint32_t cards = 1, bool stealing = true);

/** All registry names in display order. */
std::vector<std::string> backendNames();

/**
 * One design point of the cross-backend differential-testing
 * matrix (src/testing, tools/iracc_diff): a backend kind plus the
 * knobs that must never change results -- every variant has to
 * produce bit-identical realigned reads, statistics, and
 * downstream variant calls on every workload.
 */
struct BackendVariant
{
    /** Stable display label, e.g. "accelerated/prune=on/jobs=4". */
    std::string label;

    /** false = software WHD kernel, true = simulated FPGA. */
    bool accelerated = false;

    /** Computation pruning on the kernel datapath. */
    bool prune = false;

    /** Contig-level RealignJob worker threads. */
    uint32_t jobThreads = 1;

    /**
     * Accelerated only: drive the simulated card through the
     * hardened execution path (fault-free -- the differential
     * matrix asserts the hardening machinery itself changes
     * nothing).
     */
    bool hardened = false;

    /**
     * Software only: WHD sweep implementation (realign/whd_simd.hh).
     * Accelerated design points always run the default kernel.
     */
    WhdKernel kernel = activeWhdKernel();

    /** Accelerated only: cards in the provisioned fleet. */
    uint32_t cards = 1;

    /** Accelerated only: cross-card work stealing. */
    bool stealing = true;

    /**
     * Accelerated only: the iracc-taskp design point -- scalar
     * units fed in synchronous batches -- instead of the paper's
     * 32-wide units with asynchronous refill.
     */
    bool taskp = false;
};

/**
 * Enumerate the differential matrix {software, accelerated} x
 * {prune off, on} x @p job_threads, plus -- for every WHD kernel
 * this host supports -- a software design point pair (prune
 * off/on) pinned to that kernel, plus the fleet design
 * points cards in {2, 4} x stealing {on, off} (any card placement
 * must be output-invisible), plus the synchronous-batch iracc-taskp
 * point.  The first entry is the oracle: the unpruned
 * single-threaded software baseline.
 */
std::vector<BackendVariant> differentialVariants(
    const std::vector<uint32_t> &job_threads = {1, 4});

/** Instantiate the backend of one differential design point. */
std::unique_ptr<RealignerBackend> makeVariantBackend(
    const BackendVariant &variant);

} // namespace iracc

#endif // IRACC_CORE_REALIGNER_API_HH
