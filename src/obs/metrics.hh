/**
 * @file
 * Host-side metrics: a thread-safe registry of named counters,
 * gauges, and distributions (mergeable log-linear histograms).
 *
 * This is the wall-clock-domain counterpart of the simulator's
 * PerfMonitor (src/sim/perf_monitor.hh): the FPGA model counts
 * cycles, this registry counts what the *host software* does --
 * reads aligned, pipeline stage seconds, thread-pool queue depth,
 * task wait distributions.  Like the PerfMonitor, it is opt-in:
 * components hold a null pointer and every instrumentation site is
 * behind a single pointer test, so the uninstrumented hot path is
 * unchanged.
 *
 * Metric handles returned by the registry are stable for the
 * registry's lifetime and individually thread-safe (counters and
 * gauges are relaxed atomics; a distribution takes its own mutex
 * per sample, so concurrent totals are exact).  Registration takes
 * the registry mutex; instrument hot loops by hoisting the handle
 * out.
 *
 * Export formats: writeJson() (machine-readable, round-trips
 * through src/util/json) and writePrometheus() (text exposition
 * format, for scraping).  The metric name catalogue lives in
 * docs/OBSERVABILITY.md.
 */

#ifndef IRACC_OBS_METRICS_HH
#define IRACC_OBS_METRICS_HH

#include <atomic>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/latency_histogram.hh"

namespace iracc {
namespace obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(uint64_t d = 1)
    {
        v.fetch_add(d, std::memory_order_relaxed);
    }

    uint64_t value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v{0};
};

/** Instantaneous level (queue depth, in-flight contigs) with a
 *  high-water mark. */
class Gauge
{
  public:
    void
    set(int64_t x)
    {
        v.store(x, std::memory_order_relaxed);
        raiseHighWater(x);
    }

    void
    add(int64_t d)
    {
        int64_t now =
            v.fetch_add(d, std::memory_order_relaxed) + d;
        raiseHighWater(now);
    }

    int64_t value() const { return v.load(std::memory_order_relaxed); }
    int64_t
    highWater() const
    {
        return hw.load(std::memory_order_relaxed);
    }

  private:
    void
    raiseHighWater(int64_t x)
    {
        int64_t cur = hw.load(std::memory_order_relaxed);
        while (x > cur &&
               !hw.compare_exchange_weak(cur, x,
                                         std::memory_order_relaxed)) {
        }
    }

    std::atomic<int64_t> v{0};
    std::atomic<int64_t> hw{0};
};

/**
 * A registry distribution: a mutex-guarded LatencyHistogram
 * (obs/latency_histogram.hh), so quantiles carry bounded relative
 * error at any magnitude and whole per-run histograms merge in
 * exactly.  Samples are stored as integers; the export scale
 * turns them back into the unit the metric name declares.  A
 * seconds metric (MetricsRegistry::histogram) stores whole
 * nanoseconds and exports seconds (scale 1e-9); a raw metric
 * (MetricsRegistry::latency) stores cycles, nanoseconds or counts
 * as given (scale 1).
 */
class LatencyMetric
{
  public:
    explicit LatencyMetric(double export_scale) : scale(export_scale)
    {
    }

    /** Record one sample in stored units. */
    void
    record(uint64_t v)
    {
        std::lock_guard<std::mutex> lock(m);
        h.record(v);
    }

    /** Record one sample given in export units (seconds, for a
     *  seconds metric), rounded to the nearest stored unit. */
    void
    sample(double x)
    {
        double v = std::round(x / scale);
        record(v > 0.0 ? static_cast<uint64_t>(v) : 0);
    }

    /** Exact merge of a per-run/per-contig histogram. */
    void
    merge(const LatencyHistogram &other)
    {
        std::lock_guard<std::mutex> lock(m);
        h.merge(other);
    }

    /** Consistent copy for rendering. */
    LatencyHistogram
    snapshotHist() const
    {
        std::lock_guard<std::mutex> lock(m);
        return h;
    }

    /** Export units per stored unit. */
    double exportScale() const { return scale; }

  private:
    mutable std::mutex m;
    LatencyHistogram h;
    const double scale;
};

/**
 * The thread-safe metric registry.  Lookup-or-create by name;
 * handles stay valid for the registry's lifetime.  A name is bound
 * to one metric kind; requesting it as another kind panics.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** Seconds distribution: samples in seconds, stored as
     *  nanoseconds (see LatencyMetric). */
    LatencyMetric &histogram(const std::string &name);

    /** Raw-integer distribution (cycles, nanoseconds, counts). */
    LatencyMetric &latency(const std::string &name);

    // -- convenience readers (0 / empty semantics when absent) --
    uint64_t counterValue(const std::string &name) const;
    int64_t gaugeValue(const std::string &name) const;
    /** Sum of a distribution in export units. */
    double histogramSum(const std::string &name) const;
    uint64_t histogramCount(const std::string &name) const;
    /** Empty histogram when the metric is absent. */
    LatencyHistogram latencySnapshot(const std::string &name) const;

    /** One JSON object: {"counters":{...},"gauges":{...},
     *  "histograms":{...}}, each distribution rendered by
     *  writeDistributionJson.  Names escaped via util/json. */
    void writeJson(std::ostream &os) const;

    /** Prometheus text exposition format; metric names are
     *  sanitized ('.' and other illegal characters -> '_'), and
     *  every distribution is a summary (quantile series). */
    void writePrometheus(std::ostream &os) const;

  private:
    mutable std::mutex mtx;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<LatencyMetric>> dists;

    LatencyMetric &distribution(const std::string &name,
                                double export_scale);
};

} // namespace obs
} // namespace iracc

#endif // IRACC_OBS_METRICS_HH
