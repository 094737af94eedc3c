#include "obs/metrics.hh"

#include <ostream>

#include "util/json.hh"
#include "util/logging.hh"

namespace iracc {
namespace obs {

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    panic_if(gauges.count(name) || dists.count(name),
             "metric '%s' already registered with another kind",
             name.c_str());
    auto &slot = counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    panic_if(counters.count(name) || dists.count(name),
             "metric '%s' already registered with another kind",
             name.c_str());
    auto &slot = gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

/** Seconds distributions store whole nanoseconds. */
constexpr double kSecondsScale = 1e-9;

LatencyMetric &
MetricsRegistry::distribution(const std::string &name,
                              double export_scale)
{
    std::lock_guard<std::mutex> lock(mtx);
    panic_if(counters.count(name) || gauges.count(name),
             "metric '%s' already registered with another kind",
             name.c_str());
    auto &slot = dists[name];
    if (!slot)
        slot = std::make_unique<LatencyMetric>(export_scale);
    panic_if(slot->exportScale() != export_scale,
             "metric '%s' already registered with another unit",
             name.c_str());
    return *slot;
}

LatencyMetric &
MetricsRegistry::histogram(const std::string &name)
{
    return distribution(name, kSecondsScale);
}

LatencyMetric &
MetricsRegistry::latency(const std::string &name)
{
    return distribution(name, 1.0);
}

uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second->value();
}

int64_t
MetricsRegistry::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second->value();
}

double
MetricsRegistry::histogramSum(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = dists.find(name);
    if (it == dists.end())
        return 0.0;
    const LatencyMetric &d = *it->second;
    return static_cast<double>(d.snapshotHist().total()) *
           d.exportScale();
}

uint64_t
MetricsRegistry::histogramCount(const std::string &name) const
{
    return latencySnapshot(name).count();
}

LatencyHistogram
MetricsRegistry::latencySnapshot(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = dists.find(name);
    return it == dists.end() ? LatencyHistogram()
                             : it->second->snapshotHist();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mtx);
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters) {
        os << (first ? "" : ",") << jsonQuote(name) << ":"
           << c->value();
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges) {
        os << (first ? "" : ",") << jsonQuote(name)
           << ":{\"value\":" << g->value()
           << ",\"highWater\":" << g->highWater() << "}";
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, d] : dists) {
        os << (first ? "" : ",") << jsonQuote(name) << ":";
        writeDistributionJson(os, d->snapshotHist(), d->exportScale());
        first = false;
    }
    os << "}}";
}

namespace {

/** Prometheus metric names allow [a-zA-Z0-9_:] only. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out.empty() ? std::string("_") : out;
}

} // namespace

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mtx);
    for (const auto &[name, c] : counters) {
        std::string p = promName(name);
        os << "# TYPE " << p << " counter\n"
           << p << " " << c->value() << "\n";
    }
    for (const auto &[name, g] : gauges) {
        std::string p = promName(name);
        os << "# TYPE " << p << " gauge\n"
           << p << " " << g->value() << "\n"
           << "# TYPE " << p << "_high_water gauge\n"
           << p << "_high_water " << g->highWater() << "\n";
    }
    for (const auto &[name, d] : dists) {
        const LatencyHistogram h = d->snapshotHist();
        const double scale = d->exportScale();
        std::string p = promName(name);
        os << "# TYPE " << p << " summary\n";
        for (const ExportQuantile &eq : kExportQuantiles) {
            os << p << "{quantile=\"" << eq.q << "\"} ";
            // Prometheus convention: a summary with no
            // observations exposes NaN quantiles, not 0 (a
            // scraper cannot tell "empty" from "really 0" --
            // dashboards would plot phantom zero latencies).
            if (h.count() == 0)
                os << "NaN";
            else
                writeScaled(os, h.quantile(eq.q), scale);
            os << "\n";
        }
        os << p << "_sum ";
        writeScaled(os, h.total(), scale);
        os << "\n" << p << "_count " << h.count() << "\n";
    }
}

} // namespace obs
} // namespace iracc
