/**
 * @file
 * Shared pieces of the repository benchmark harness.
 *
 * The harness has two subcommands, both driven by perfbench/run.py:
 *
 *   setup  generate one workload's inputs from its seed (files in
 *          the work directory plus a manifest holding the reference
 *          answers the passes are checked against), and report how
 *          long that took;
 *   run    load nothing but those files, measure passes for a fixed
 *          time, check every output, and print the metrics.
 *
 * Set-up and the measured passes run in separate processes, so the
 * peak resident memory of `run` never includes the workload
 * generator's allocations.
 *
 * Every span recorded here is taken from outside the program's
 * public calls (or imported from its existing obs hook); nothing
 * under src/ is instrumented for the benchmark.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "genomics/stream_io.hh"

namespace iracc {
namespace obs {
class SpanTracer;
}
} // namespace iracc

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Options shared by the subcommands. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string dir; ///< work directory of the set-up files

    /** Contig-level job threads of the passes (0 = jobThreads()).
     *  Outputs and modeled counters are identical for any value. */
    uint32_t threads = 0;
};

/**
 * Per-pass samples of named metrics; a run reports the median of
 * each metric's samples.
 */
class Samples
{
  public:
    void add(const std::string &name, double value);

    bool has(const std::string &name) const;

    /** Median of the samples of @p name (0 when absent). */
    double median(const std::string &name) const;

  private:
    std::map<std::string, std::vector<double>> data;
};

/** What one `run` produced. */
struct RunReport
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Untraced passes: the end-to-end metrics. */
    Samples e2e;

    /** Traced passes: the per-layer metrics. */
    Samples layers;

    /** Input sizes and other facts printed with the provenance. */
    std::map<std::string, std::string> facts;

    /** Count one failed operation and say why on stderr. */
    void fail(const std::string &why);
};

// -- key/value manifest written by setup, read by run -------------

using Manifest = std::map<std::string, std::string>;

void writeManifest(const std::string &path, const Manifest &m);
Manifest readManifest(const std::string &path);
const std::string &manifestGet(const Manifest &m,
                               const std::string &key);

// -- small measurement helpers ---------------------------------------

/** 64-bit FNV-1a digest of @p bytes. */
uint64_t digestBytes(const std::string &bytes);

/** Digest of a file's bytes (fatal when unreadable). */
uint64_t digestFile(const std::string &path);

/** Size of a file in bytes (0 when absent). */
uint64_t fileSize(const std::string &path);

/** FASTA reference / SAM-lite reads from a file (fatal when
 *  unreadable). */
iracc::ReferenceGenome loadReference(const std::string &path);
std::vector<iracc::Read> loadReads(const std::string &path,
                                   const iracc::ReferenceGenome &ref);

/** @p reads rendered as SAM-lite. */
std::string samLite(const iracc::ReferenceGenome &ref,
                    const std::vector<iracc::Read> &reads);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/**
 * Passes (the warm-up included) after which a run reads its peak
 * RSS, so the figure does not depend on how many passes fit in the
 * measured time (resident memory grows from pass to pass).
 */
constexpr int kRssPasses = 3;

/** Current virtual size of this process, kB (/proc/self/statm). */
double vmSizeKb();

/** Contig-level job threads: the host's hardware concurrency. */
uint32_t jobThreads();

/** Median / nearest-rank quantile of @p v (0 when empty). */
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

// -- tracing -------------------------------------------------------

/** One recorded span: layer-qualified name plus its interval in
 *  seconds on the log's clock. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span log.  Spans are appended from any thread and read
 * once the traced passes are over; nothing is written out while
 * passes run.
 */
class SpanLog
{
  public:
    SpanLog();

    /** Seconds since the log was created. */
    double now() const;

    void add(std::string name, double start, double end);

    /**
     * Import the spans the program's obs hook recorded into
     * @p tracer, created when the log read @p tracer_epoch.
     * Stage spans become realign.{plan,prepare,execute,apply},
     * contig spans core.contig, barrier waits core.barrier.
     * @return summed seconds per imported name.
     */
    std::map<std::string, double>
    importTracer(const iracc::obs::SpanTracer &tracer,
                 double tracer_epoch);

    std::vector<Span> spans() const;

  private:
    Clock::time_point epoch;
    mutable std::mutex mu;
    std::vector<Span> all;
};

/** RAII span on a nullable log: inert (no clock read) when null. */
class ScopedTimer
{
  public:
    ScopedTimer(SpanLog *log, const char *name);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    SpanLog *log;
    const char *name;
    double start = 0.0;
};

/** Times every nextBatch of a wrapped source as genomics.parse. */
class TimedBatchSource : public iracc::ReadBatchSource
{
  public:
    TimedBatchSource(iracc::ReadBatchSource &inner, SpanLog *log)
        : inner(inner), log(log)
    {
    }

    iracc::StreamStatus nextBatch(int32_t *contig,
                                  std::vector<iracc::Read> *reads,
                                  iracc::ParseError *err) override;

  private:
    iracc::ReadBatchSource &inner;
    SpanLog *log;
};

/**
 * Seconds of [lo, hi] covered by the union of @p intervals (each
 * clipped to [lo, hi]).
 */
double coveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

/**
 * Layer breakdown of the traced spans of one pass.  @p e2e lists
 * the pass's end-to-end intervals (what e2e_s times).  Adds to
 * @p out, per pass: summed seconds of each layer span name,
 * core.self_s (core.run time not covered by a genomics or realign
 * span) and e2e.unattributed_s (end-to-end time covered by no
 * span at all).
 */
void addLayerTimes(const std::vector<Span> &spans,
                   const std::vector<std::pair<double, double>> &e2e,
                   Samples &out);

// -- the workloads ---------------------------------------------------

/** Generate the workload's inputs; @return set-up seconds. */
double runSetup(const Options &opt);

void runGenomeStream(const Options &opt, RunReport &rep);
void runIndelDense(const Options &opt, RunReport &rep);
void runServerTenants(const Options &opt, RunReport &rep);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
