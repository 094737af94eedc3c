/**
 * @file
 * Entry point of the benchmark harness (see harness.hh and
 * perfbench/DESIGN.md).
 *
 *   iracc_perfbench setup --workload W --seed N --dir D
 *   iracc_perfbench run   --workload W --seed N --dir D
 *                         --seconds S --trace 0|1 [--job-threads N]
 *
 * `run` prints a provenance line, then as its last line one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end
 * metrics (setup_s is added by run.py) with --trace 0, the
 * per-layer metrics with --trace 1.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness.hh"
#include "util/json.hh"
#include "realign/whd_simd.hh"
#include "util/logging.hh"

namespace perfbench {
namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics `run` reports on every workload. */
constexpr MetricDef kEndToEnd[] = {
    {"e2e_s", "s"},
    {"peak_rss_mb", "MB"},
};

/**
 * Per-layer metrics of the traced run.  A workload that does not
 * exercise a layer reports 0 for it (see DESIGN.md for which
 * workload moves which metric).
 */
constexpr MetricDef kPerLayer[] = {
    {"genomics.parse_s", "s"},
    {"genomics.parse_mb_per_s", "MB/s"},
    {"genomics.write_s", "s"},
    {"genomics.write_mb_per_s", "MB/s"},
    {"genomics.records", "count"},
    {"genomics.parse_errors", "count"},
    {"core.run_s", "s"},
    {"core.contig_s_sum", "s"},
    {"core.barrier_wait_s", "s"},
    {"core.self_s", "s"},
    {"realign.plan_s", "s"},
    {"realign.prepare_s", "s"},
    {"realign.execute_s", "s"},
    {"realign.apply_s", "s"},
    {"realign.targets", "count"},
    {"realign.consensuses", "count"},
    {"realign.reads_realigned", "count"},
    {"whd.comparisons", "count"},
    {"whd.comparisons_unpruned", "count"},
    {"whd.pruned_fraction", "fraction"},
    {"whd.comparisons_per_s", "1/s"},
    {"modeled_fpga_s", "s"},
    {"accel.modeled_cycles", "cycles"},
    {"accel.unit_utilization", "fraction"},
    {"accel.dma_fraction", "fraction"},
    {"accel.target_latency_p50_us", "us"},
    {"accel.target_latency_p90_us", "us"},
    {"accel.host_s_per_modeled_s", "s/s"},
    {"fleet.card_busy_cycles", "cycles"},
    {"fleet.steals", "count"},
    {"server.submit_ms", "ms"},
    {"server.job_wall_ms", "ms"},
    {"server.overhead_ms", "ms"},
    {"server.backpressure", "count"},
    {"server.connections", "count"},
    {"iracc.realign_s", "s"},
    {"native.realign_s", "s"},
    {"job_p50_ms", "ms"},
    {"job_p90_ms", "ms"},
    {"jobs_per_s", "1/s"},
    {"conn_vm_growth_kb", "kB"},
    {"e2e.unattributed_s", "s"},
    {"e2e.trace_overhead_s", "s"},
};

/** Workload-specific user-facing numbers measured in the untraced
 *  passes and reported with the per-layer set. */
constexpr const char *kUntracedInLayers[] = {
    "modeled_fpga_s", "iracc.realign_s", "native.realign_s",
    "job_p50_ms",     "job_p90_ms",      "jobs_per_s",
    "conn_vm_growth_kb",
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: iracc_perfbench setup|run "
                 "--workload W --seed N --dir D [--seconds S] "
                 "[--trace 0|1] [--job-threads N]\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("missing value");
        std::string key = argv[i];
        std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                o.workload = val;
            else if (key == "--seed")
                o.seed = std::stoull(val);
            else if (key == "--dir")
                o.dir = val;
            else if (key == "--seconds")
                o.seconds = std::stod(val);
            else if (key == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (key == "--job-threads")
                o.threads = static_cast<uint32_t>(std::stoul(val));
            else
                usage(("unknown option " + key).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (o.workload.empty() || o.dir.empty())
        usage("--workload and --dir are required");
    if (o.threads == 0)
        o.threads = jobThreads();
    return o;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metric(const char *name, double value, const char *unit)
{
    return iracc::jsonQuote(name) + ":{\"value\":" + number(value) +
           ",\"unit\":" + iracc::jsonQuote(unit) + "}";
}

std::string
factsJson(const std::map<std::string, std::string> &facts)
{
    std::string out = "{";
    for (const auto &[k, v] : facts) {
        if (out.size() > 1)
            out += ",";
        out += iracc::jsonQuote(k) + ":" + iracc::jsonQuote(v);
    }
    return out + "}";
}

int
runCommand(const Options &opt)
{
    RunReport rep;
    rep.facts = readManifest(opt.dir + "/manifest.txt");
    if (opt.workload == "genome-stream")
        runGenomeStream(opt, rep);
    else if (opt.workload == "indel-dense")
        runIndelDense(opt, rep);
    else if (opt.workload == "server-tenants")
        runServerTenants(opt, rep);
    else
        usage(("unknown workload " + opt.workload).c_str());

    std::string metrics;
    auto append = [&](const std::string &m) {
        metrics += (metrics.empty() ? "" : ",") + m;
    };
    if (!opt.trace) {
        for (const MetricDef &d : kEndToEnd) {
            fatal_if(!rep.e2e.has(d.name), "workload did not measure %s",
                     d.name);
            append(metric(d.name, rep.e2e.median(d.name), d.unit));
        }
    } else {
        for (const char *name : kUntracedInLayers) {
            if (rep.e2e.has(name))
                rep.layers.add(name, rep.e2e.median(name));
        }
        rep.layers.add("e2e.trace_overhead_s",
                       rep.e2e.median("traced_e2e_s") -
                           rep.e2e.median("e2e_s"));
        for (const MetricDef &d : kPerLayer)
            append(metric(d.name, rep.layers.median(d.name), d.unit));
    }

    std::string prov = "{\"workload\":" + iracc::jsonQuote(opt.workload) +
                       ",\"seed\":" + std::to_string(opt.seed) +
                       ",\"whd_kernel\":" +
                       iracc::jsonQuote(iracc::whdKernelName(
                           iracc::activeWhdKernel())) +
                       ",\"nproc\":" + std::to_string(jobThreads()) +
                       ",\"job_threads\":" + std::to_string(opt.threads) +
                       ",\"build_type\":" +
                       iracc::jsonQuote(PERFBENCH_BUILD_TYPE) +
                       ",\"git\":" + iracc::jsonQuote(PERFBENCH_GIT_DESCRIBE) +
                       ",\"inputs\":" + factsJson(rep.facts) + "}";
    std::printf("provenance %s\n", prov.c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                rep.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metrics.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        usage("missing subcommand");
    iracc::setQuiet(true);
    Options opt = parseOptions(argc, argv);
    if (std::strcmp(argv[1], "setup") == 0) {
        std::printf("{\"setup_s\":%s}\n", number(runSetup(opt)).c_str());
        return 0;
    }
    if (std::strcmp(argv[1], "run") == 0)
        return runCommand(opt);
    usage("unknown subcommand");
}
