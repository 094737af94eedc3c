#include "obs/span.hh"

#include <algorithm>
#include <ostream>

#include "obs/metrics.hh"
#include "sim/perf_monitor.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace iracc {
namespace obs {

SpanTracer::SpanTracer() : epoch(std::chrono::steady_clock::now()) {}

double
SpanTracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

uint32_t
SpanTracer::tidLocked(std::thread::id id)
{
    for (const auto &[tid_id, tid] : tids) {
        if (tid_id == id)
            return tid;
    }
    uint32_t tid = nextTid++;
    tids.emplace_back(id, tid);
    names.emplace_back(tid, "host thread " + std::to_string(tid));
    return tid;
}

uint32_t
SpanTracer::currentThreadTid()
{
    std::lock_guard<std::mutex> lock(mtx);
    return tidLocked(std::this_thread::get_id());
}

void
SpanTracer::nameCurrentThread(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    uint32_t tid = tidLocked(std::this_thread::get_id());
    for (auto &[t, n] : names) {
        if (t == tid) {
            n = name;
            return;
        }
    }
}

void
SpanTracer::record(std::string name, std::string cat,
                   double start_us, double dur_us)
{
    std::lock_guard<std::mutex> lock(mtx);
    HostSpan span;
    span.name = std::move(name);
    span.cat = std::move(cat);
    span.tid = tidLocked(std::this_thread::get_id());
    span.startUs = start_us;
    span.durUs = dur_us < 0.0 ? 0.0 : dur_us;
    all.push_back(std::move(span));
}

std::vector<HostSpan>
SpanTracer::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return all;
}

std::vector<std::pair<uint32_t, std::string>>
SpanTracer::threadNames() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return names;
}

ScopedSpan::ScopedSpan(const Observability *obs, std::string name,
                       std::string cat, std::string histogram)
    : started(std::chrono::steady_clock::now())
{
    if (!obs || !obs->on())
        return;
    o = obs;
    nm = std::move(name);
    ct = std::move(cat);
    hist = std::move(histogram);
}

double
ScopedSpan::close()
{
    if (!open)
        return 0.0;
    open = false;
    auto ended = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(ended - started).count();
    if (!o)
        return seconds;
    if (o->tracer) {
        double end_us = o->tracer->nowUs();
        o->tracer->record(nm, ct, end_us - seconds * 1e6,
                          seconds * 1e6);
    }
    if (o->metrics && !hist.empty())
        o->metrics->histogram(hist).sample(seconds);
    return seconds;
}

void
writeUnifiedChromeTrace(std::ostream &os, const SpanTracer *host,
                        const PerfReport *sim, double clock_mhz)
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto comma = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    if (host) {
        comma();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
           << kTraceHostPid
           << ",\"tid\":0,\"args\":{\"name\":\"host\"}}";
        for (const auto &[tid, name] : host->threadNames()) {
            comma();
            os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
               << kTraceHostPid << ",\"tid\":" << tid
               << ",\"args\":{\"name\":" << jsonQuote(name) << "}}";
        }
        for (const HostSpan &span : host->spans()) {
            comma();
            os << "{\"name\":" << jsonQuote(span.name)
               << ",\"cat\":" << jsonQuote(span.cat)
               << ",\"ph\":\"X\",\"ts\":" << span.startUs
               << ",\"dur\":" << span.durUs
               << ",\"pid\":" << kTraceHostPid
               << ",\"tid\":" << span.tid << ",\"args\":{}}";
        }
    }

    if (sim && sim->enabled)
        appendChromeTraceEvents(os, *sim, clock_mhz, first);

    os << "\n]}\n";
}

void
instrumentThreadPool(iracc::ThreadPool &pool,
                     MetricsRegistry &registry,
                     const std::string &prefix)
{
    // Metric handles are resolved once; the hooks touch only
    // the handles afterwards.
    Gauge &depth = registry.gauge(prefix + ".queue_depth");
    Counter &tasks = registry.counter(prefix + ".tasks");
    LatencyMetric &wait =
        registry.histogram(prefix + ".task_wait_seconds");
    LatencyMetric &busy =
        registry.histogram(prefix + ".task_busy_seconds");

    auto hooks = std::make_shared<ThreadPoolHooks>();
    hooks->onEnqueue = [&depth](size_t d) {
        depth.set(static_cast<int64_t>(d));
    };
    hooks->onDequeue = [&depth, &tasks, &wait](double wait_seconds,
                                               size_t d) {
        depth.set(static_cast<int64_t>(d));
        tasks.add(1);
        wait.sample(wait_seconds);
    };
    hooks->onTaskDone = [&busy](double busy_seconds) {
        busy.sample(busy_seconds);
    };
    pool.setHooks(std::move(hooks));
}

} // namespace obs
} // namespace iracc
