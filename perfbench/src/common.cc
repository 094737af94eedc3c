/**
 * @file
 * Shared harness pieces: samples, manifest, measurement helpers and
 * the in-memory span log (see harness.hh).
 */

#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "genomics/io.hh"
#include "obs/span.hh"
#include "util/logging.hh"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Samples::add(const std::string &name, double value)
{
    data[name].push_back(value);
}

bool
Samples::has(const std::string &name) const
{
    return data.count(name) != 0;
}

double
Samples::median(const std::string &name) const
{
    auto it = data.find(name);
    return it == data.end() ? 0.0 : perfbench::median(it->second);
}

void
RunReport::fail(const std::string &why)
{
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void
writeManifest(const std::string &path, const Manifest &m)
{
    std::ofstream os(path);
    fatal_if(!os, "cannot write '%s'", path.c_str());
    for (const auto &[k, v] : m)
        os << k << ' ' << v << '\n';
    fatal_if(!os, "cannot write '%s'", path.c_str());
}

Manifest
readManifest(const std::string &path)
{
    std::ifstream is(path);
    fatal_if(!is, "no set-up manifest '%s' (run setup first)",
             path.c_str());
    Manifest m;
    std::string line;
    while (std::getline(is, line)) {
        size_t sp = line.find(' ');
        if (sp != std::string::npos)
            m[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return m;
}

const std::string &
manifestGet(const Manifest &m, const std::string &key)
{
    auto it = m.find(key);
    fatal_if(it == m.end(), "set-up manifest lacks '%s'", key.c_str());
    return it->second;
}

uint64_t
digestBytes(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
digestFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatal_if(!is, "cannot read '%s'", path.c_str());
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    return digestBytes(bytes);
}

uint64_t
fileSize(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    return is ? static_cast<uint64_t>(is.tellg()) : 0;
}

iracc::ReferenceGenome
loadReference(const std::string &path)
{
    std::ifstream is(path);
    fatal_if(!is, "cannot read '%s'", path.c_str());
    return iracc::readFasta(is);
}

std::vector<iracc::Read>
loadReads(const std::string &path, const iracc::ReferenceGenome &ref)
{
    std::ifstream is(path);
    fatal_if(!is, "cannot read '%s'", path.c_str());
    return iracc::readSamLite(is, ref);
}

std::string
samLite(const iracc::ReferenceGenome &ref,
        const std::vector<iracc::Read> &reads)
{
    std::ostringstream os;
    iracc::writeSamLite(os, ref, reads);
    return os.str();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB -> MB
}

double
vmSizeKb()
{
    std::ifstream is("/proc/self/statm");
    double pages = 0.0;
    is >> pages;
    return pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

uint32_t
jobThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    if (q == 0.5 && v.size() % 2 == 0)
        return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

SpanLog::SpanLog() : epoch(Clock::now()) {}

double
SpanLog::now() const
{
    return secondsSince(epoch);
}

void
SpanLog::add(std::string name, double start, double end)
{
    std::lock_guard<std::mutex> lock(mu);
    all.push_back({std::move(name), start, end});
}

std::map<std::string, double>
SpanLog::importTracer(const iracc::obs::SpanTracer &tracer,
                      double tracer_epoch)
{
    std::map<std::string, double> sums;
    for (const iracc::obs::HostSpan &s : tracer.spans()) {
        std::string name;
        if (s.cat == "realign")
            name = "realign." + s.name;
        else if (s.name == "job barrier")
            name = "core.barrier";
        else if (s.name.rfind("contig ", 0) == 0)
            name = "core.contig";
        else
            name = "obs." + s.name;
        double start = tracer_epoch + s.startUs * 1e-6;
        sums[name] += s.durUs * 1e-6;
        add(name, start, start + s.durUs * 1e-6);
    }
    return sums;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return all;
}

ScopedTimer::ScopedTimer(SpanLog *log, const char *name)
    : log(log), name(name), start(log ? log->now() : 0.0)
{
}

ScopedTimer::~ScopedTimer()
{
    if (log)
        log->add(name, start, log->now());
}

iracc::StreamStatus
TimedBatchSource::nextBatch(int32_t *contig,
                            std::vector<iracc::Read> *reads,
                            iracc::ParseError *err)
{
    ScopedTimer t(log, "genomics.parse");
    return inner.nextBatch(contig, reads, err);
}

double
coveredSeconds(std::vector<std::pair<double, double>> intervals,
               double lo, double hi)
{
    for (auto &iv : intervals) {
        iv.first = std::max(iv.first, lo);
        iv.second = std::min(iv.second, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (const auto &[s, e] : intervals) {
        if (e <= reach || s >= e)
            continue;
        covered += e - std::max(s, reach);
        reach = e;
    }
    return covered;
}

void
addLayerTimes(const std::vector<Span> &spans,
              const std::vector<std::pair<double, double>> &e2e,
              Samples &out)
{
    std::map<std::string, double> sums;
    std::vector<std::pair<double, double>> lower, every;
    for (const Span &s : spans) {
        sums[s.name] += s.end - s.start;
        every.emplace_back(s.start, s.end);
        if (s.name.rfind("genomics.", 0) == 0 ||
            s.name.rfind("realign.", 0) == 0)
            lower.emplace_back(s.start, s.end);
    }
    double core_self = 0.0;
    for (const Span &s : spans) {
        if (s.name == "core.run")
            core_self += (s.end - s.start) -
                         coveredSeconds(lower, s.start, s.end);
    }
    double unattributed = 0.0;
    for (const auto &[lo, hi] : e2e)
        unattributed += (hi - lo) - coveredSeconds(every, lo, hi);

    out.add("genomics.parse_s", sums["genomics.parse"]);
    out.add("genomics.write_s", sums["genomics.write"]);
    out.add("core.run_s", sums["core.run"]);
    out.add("core.contig_s_sum", sums["core.contig"]);
    out.add("core.barrier_wait_s", sums["core.barrier"]);
    out.add("core.self_s", core_self);
    for (const char *stage : {"plan", "prepare", "execute", "apply"}) {
        out.add(std::string("realign.") + stage + "_s",
                sums[std::string("realign.") + stage]);
    }
    out.add("e2e.unattributed_s", unattributed);
}

} // namespace perfbench
