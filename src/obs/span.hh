/**
 * @file
 * Wall-clock span tracing for host threads, and the unified trace
 * export that shows host work and the simulated FPGA on one
 * Perfetto timeline.
 *
 * A SpanTracer collects [start, end) wall-clock intervals recorded
 * by host threads.  Each OS thread is lazily assigned its own
 * trace track ("tid"), so a contig-parallel realignment job
 * renders as one host process with one row per worker thread.
 *
 * The two clock domains meet in writeUnifiedChromeTrace(): host
 * spans are in wall-clock microseconds since the tracer's epoch,
 * and the simulator's cycle-domain spans (PerfReport::trace) are
 * converted to microseconds via the existing cycles / MHz
 * conversion -- so one merged file shows the host process
 * (pid = kTraceHostPid) next to the per-contig FPGA processes
 * (pid = contig id), all on a microsecond axis.
 *
 * Like every observability surface in this repository, tracing is
 * opt-in: instrumented code holds a nullable pointer, and a
 * ScopedSpan constructed with a null bundle records nothing.  It
 * still reads the clock and returns the elapsed seconds, so the
 * span is the one measurement of a stage whether or not a sink is
 * attached.
 */

#ifndef IRACC_OBS_SPAN_HH
#define IRACC_OBS_SPAN_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace iracc {

struct PerfReport;

namespace obs {

class MetricsRegistry;

/** Chrome trace pid of the host process in unified traces; the
 *  per-contig FPGA simulations keep pid = contig id (0..24), so
 *  any value above the largest contig id works. */
constexpr uint32_t kTraceHostPid = 1000;

/** One completed host-side span. */
struct HostSpan
{
    std::string name; ///< e.g. "realign c21" or "sort"
    std::string cat;  ///< e.g. "stage", "job", "refine"
    uint32_t tid = 0; ///< per-OS-thread track id
    double startUs = 0.0; ///< wall microseconds since tracer epoch
    double durUs = 0.0;   ///< span length in microseconds
};

/**
 * Thread-safe collector of host spans.  record() may be called
 * from any thread; the calling thread is registered on first use.
 */
class SpanTracer
{
  public:
    SpanTracer();
    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** Microseconds elapsed since this tracer was constructed. */
    double nowUs() const;

    /**
     * Trace track of the calling thread, assigning one (and a
     * default "host thread N" name) on first use.
     */
    uint32_t currentThreadTid();

    /** Name the calling thread's track (e.g. "realign worker 2"). */
    void nameCurrentThread(const std::string &name);

    /** Record one completed span on the calling thread's track. */
    void record(std::string name, std::string cat, double start_us,
                double dur_us);

    /** Snapshot of all recorded spans. */
    std::vector<HostSpan> spans() const;

    /** Snapshot of (tid, name) track labels. */
    std::vector<std::pair<uint32_t, std::string>> threadNames() const;

  private:
    uint32_t tidLocked(std::thread::id id);

    mutable std::mutex mtx;
    std::chrono::steady_clock::time_point epoch;
    std::vector<HostSpan> all;
    std::vector<std::pair<std::thread::id, uint32_t>> tids;
    std::vector<std::pair<uint32_t, std::string>> names;
    uint32_t nextTid = 1;
};

/**
 * The nullable bundle instrumented code carries: both members
 * optional, either may be null.  Passing a null Observability* (or
 * one with both members null) disables instrumentation entirely.
 */
struct Observability
{
    MetricsRegistry *metrics = nullptr;
    SpanTracer *tracer = nullptr;

    /** True when any instrumentation sink is attached. */
    bool on() const { return metrics != nullptr || tracer != nullptr; }
};

/**
 * RAII span: on close (or destruction) measures the elapsed
 * wall-clock seconds, records a trace span on the bundle's tracer
 * and samples the seconds into the named duration histogram of the
 * bundle's registry.  When @p obs is null or empty only the
 * measurement is taken.
 */
class ScopedSpan
{
  public:
    /**
     * @param obs       nullable observability bundle
     * @param name      span name (trace display)
     * @param cat       span category
     * @param histogram name of the seconds histogram to sample;
     *                  empty = trace span only
     */
    ScopedSpan(const Observability *obs, std::string name,
               std::string cat, std::string histogram = "");

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan() { close(); }

    /** End the span.  @return elapsed seconds since construction
     *  (0 on every call after the first). */
    double close();

  private:
    const Observability *o = nullptr; ///< null when no sink
    std::string nm;
    std::string ct;
    std::string hist;
    std::chrono::steady_clock::time_point started;
    bool open = true;
};

/**
 * Write one Chrome trace-event JSON document merging host spans
 * (@p host, may be null) with simulator spans (@p sim, may be
 * null; cycles converted at @p clock_mhz, which is required only
 * when @p sim has trace events).  Loads in chrome://tracing and
 * Perfetto; see docs/OBSERVABILITY.md for the pid/tid layout.
 */
void writeUnifiedChromeTrace(std::ostream &os, const SpanTracer *host,
                             const PerfReport *sim, double clock_mhz);

} // namespace obs

class ThreadPool; // util layer

namespace obs {

/**
 * Attach queue-depth / task-wait / busy-time metrics to a thread
 * pool under @p prefix:
 *
 *   <prefix>.queue_depth        gauge (+ high water)
 *   <prefix>.tasks              counter
 *   <prefix>.task_wait_seconds  histogram (enqueue -> dequeue)
 *   <prefix>.task_busy_seconds  histogram (task execution)
 *
 * Worker utilization over a window = task_busy_seconds.sum /
 * (wall seconds x worker count).  Install while the pool is idle.
 */
void instrumentThreadPool(iracc::ThreadPool &pool,
                          MetricsRegistry &registry,
                          const std::string &prefix);

} // namespace obs
} // namespace iracc

#endif // IRACC_OBS_SPAN_HH
