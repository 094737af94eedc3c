/**
 * @file
 * server-tenants: an in-process RealignServer (`iracc`, 2 cards,
 * stealing on, 2 workers) fed by a closed loop of 4 tenant client
 * threads.  Each job is what `iracc_client submit --wait` does:
 * connect, submit a file job, wait for its result, close.  The job
 * files were staged in set-up, one SAM-lite per contig; every
 * output must match the solo RealignSession run made there.
 */

#include <atomic>
#include <thread>

#include "accel/params.hh"
#include "harness.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "util/logging.hh"

namespace perfbench {

using namespace iracc;
using namespace iracc::server;

namespace {

constexpr int kClients = 4;

/** One client-observed job. */
struct JobSample
{
    size_t file = 0;
    double latency = 0.0; ///< connect to result received
    double submit = 0.0;  ///< connect + submit round trip
    double result = 0.0;  ///< result round trip
    double wall = 0.0;    ///< the server's JobView::wallSeconds
    uint64_t vtime = 0;   ///< modeled card cycles (progress events)
};

struct StagedFile
{
    std::string path;
    std::string digest;
};

class TenantLoad
{
  public:
    TenantLoad(const std::string &dir, uint16_t port,
               std::vector<StagedFile> files)
        : dir(dir), port(port), files(std::move(files))
    {
    }

    /**
     * Run the closed loop: each client submits its next job as soon
     * as the previous one returned.  Stops after @p max_jobs jobs
     * (0 = no limit) or @p seconds (0 = no limit), but not before
     * kRssPasses sweeps of the files have completed in all.
     */
    std::vector<JobSample>
    phase(uint64_t max_jobs, double seconds, RunReport &rep)
    {
        std::vector<std::vector<JobSample>> per(kClients);
        std::vector<std::vector<std::string>> errors(kClients);
        std::atomic<uint64_t> next{0};
        Clock::time_point t0 = Clock::now();
        std::vector<std::thread> clients;
        for (int k = 0; k < kClients; ++k) {
            clients.emplace_back([&, k] {
                for (;;) {
                    if (seconds > 0.0 && secondsSince(t0) >= seconds &&
                        completed >= kRssPasses * files.size())
                        return;
                    uint64_t n = next.fetch_add(1);
                    if (max_jobs > 0 && n >= max_jobs)
                        return;
                    JobSample s;
                    s.file = n % files.size();
                    std::string err = runJob(k, &s);
                    if (err.empty())
                        per[k].push_back(s);
                    else
                        errors[k].push_back(err);
                    if (++completed == kRssPasses * files.size())
                        rssMb = peakRssMb();
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
        std::vector<JobSample> all;
        for (int k = 0; k < kClients; ++k) {
            rep.attempted += per[k].size() + errors[k].size();
            for (const std::string &e : errors[k])
                rep.fail(e);
            for (const JobSample &s : per[k]) {
                std::string why = checkModeled(s);
                if (why.empty())
                    all.push_back(s);
                else
                    rep.fail(why);
            }
        }
        return all;
    }

    uint64_t backpressure() const { return refused.load(); }

    /** Peak RSS once kRssPasses sweeps of the staged files had
     *  completed (0 before that); read after a phase returns. */
    double peakRssAtSweeps() const { return rssMb; }

    /** Modeled card seconds of one sweep over the staged files. */
    double
    modeledSeconds() const
    {
        uint64_t cycles = 0;
        for (uint64_t c : modeled)
            cycles += c;
        return static_cast<double>(cycles) /
               (AccelConfig{}.clockMhz * 1e6);
    }

  private:
    /** One connect -> submit -> result -> close exchange; @return
     *  the failure, empty when the job ended ok with the expected
     *  output. */
    std::string
    runJob(int client, JobSample *s)
    {
        const StagedFile &f = files[s->file];
        JobSpec spec;
        spec.refPath = dir + "/ref.fa";
        spec.readsPath = f.path;
        spec.outPath = dir + "/out-" + std::to_string(client) + ".samlite";
        const std::string tenant = "tenant-" + std::to_string(client);

        Clock::time_point t0 = Clock::now();
        ServerClient c;
        std::string err;
        Response resp;
        if (!c.connect("127.0.0.1", port, &err))
            return "connect: " + err;
        if (!c.submit(tenant, spec, &resp, &err))
            return "submit: " + err;
        if (!resp.ok) {
            if (resp.reason == "backpressure")
                ++refused;
            return "submit refused: " + resp.reason + " " + resp.error;
        }
        s->submit = secondsSince(t0);
        Clock::time_point t1 = Clock::now();
        if (!c.result(resp.jobId, &resp, &err))
            return "result: " + err;
        s->result = secondsSince(t1);
        c.close();
        s->latency = secondsSince(t0);

        const JobView &j = resp.job;
        if (!resp.ok || !resp.hasJob || j.state != JobState::Done ||
            j.status != "ok" || !j.error.empty())
            return "job " + std::to_string(j.id) + " ended " +
                   jobStateName(j.state) + "/" + j.status + " " + j.error;
        if (std::to_string(digestFile(spec.outPath)) != f.digest)
            return "job output for " + f.path +
                   " differs from the solo run";
        s->wall = j.wallSeconds;
        for (const ProgressEvent &p : j.progress)
            s->vtime += p.vtime;
        return "";
    }

    /** Modeled cycles are a pure function of the file: the first
     *  job of each file fixes them, later ones must repeat them. */
    std::string
    checkModeled(const JobSample &s)
    {
        if (modeled.size() < files.size())
            modeled.resize(files.size(), 0);
        if (modeled[s.file] == 0)
            modeled[s.file] = s.vtime;
        else if (modeled[s.file] != s.vtime)
            return "modeled card cycles of " + files[s.file].path +
                   " did not repeat exactly";
        return "";
    }

    std::string dir;
    uint16_t port;
    std::vector<StagedFile> files;
    std::vector<uint64_t> modeled;
    std::atomic<uint64_t> refused{0};
    std::atomic<uint64_t> completed{0};
    double rssMb = 0.0; ///< written by the one client that
                        ///< completes sweep kRssPasses
};

std::vector<double>
field(const std::vector<JobSample> &jobs, double JobSample::*f)
{
    std::vector<double> v;
    for (const JobSample &s : jobs)
        v.push_back(s.*f);
    return v;
}

} // namespace

void
runServerTenants(const Options &opt, RunReport &rep)
{
    Manifest m = readManifest(opt.dir + "/manifest.txt");
    std::vector<StagedFile> files;
    const size_t n = std::stoul(manifestGet(m, "input.files"));
    for (size_t i = 0; i < n; ++i) {
        std::string key = "file." + std::to_string(i);
        files.push_back({manifestGet(m, key + ".path"),
                         manifestGet(m, key + ".digest")});
    }

    ServerConfig sc;
    sc.scheduler.workers = 2;
    sc.scheduler.backend = "iracc";
    sc.scheduler.cards = 2;
    sc.scheduler.stealing = true;
    RealignServer server(sc);
    std::string err;
    fatal_if(!server.start(&err), "server start: %s", err.c_str());
    std::thread serving([&server] { server.serve(); });

    TenantLoad load(opt.dir, server.port(), std::move(files));
    auto connections = [&server] {
        return static_cast<double>(
            server.metrics().counterValue("server.connections"));
    };

    // Warm-up sweep: every staged file once, fixing its modeled
    // cycles; the server's allocator arenas settle here too.
    load.phase(n, 0.0, rep);

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const double vm0 = vmSizeKb();
    const double conn0 = connections();
    Clock::time_point t0 = Clock::now();
    std::vector<JobSample> jobs = load.phase(0, budget, rep);
    const double elapsed = secondsSince(t0);
    const double vm1 = vmSizeKb();
    const double conns = connections() - conn0;

    std::vector<double> lat = field(jobs, &JobSample::latency);
    rep.e2e.add("e2e_s", median(lat));
    rep.e2e.add("peak_rss_mb", load.peakRssAtSweeps());
    rep.e2e.add("modeled_fpga_s", load.modeledSeconds());
    rep.e2e.add("job_p50_ms", quantile(lat, 0.5) * 1e3);
    rep.e2e.add("job_p90_ms", quantile(lat, 0.9) * 1e3);
    rep.e2e.add("jobs_per_s", static_cast<double>(jobs.size()) / elapsed);
    rep.e2e.add("conn_vm_growth_kb", conns > 0 ? (vm1 - vm0) / conns : 0.0);
    rep.facts["jobs_measured"] = std::to_string(jobs.size());

    if (opt.trace) {
        const double c0 = connections();
        const uint64_t refused0 = load.backpressure();
        std::vector<JobSample> traced = load.phase(0, budget, rep);
        Samples &l = rep.layers;
        std::vector<double> overhead, unattributed;
        for (const JobSample &s : traced) {
            overhead.push_back(s.latency - s.wall);
            unattributed.push_back(s.latency - s.submit - s.result);
            rep.e2e.add("traced_e2e_s", s.latency);
        }
        l.add("server.submit_ms",
              median(field(traced, &JobSample::submit)) * 1e3);
        l.add("server.job_wall_ms",
              median(field(traced, &JobSample::wall)) * 1e3);
        l.add("server.overhead_ms", median(overhead) * 1e3);
        l.add("server.backpressure",
              static_cast<double>(load.backpressure() - refused0));
        l.add("server.connections", connections() - c0);
        l.add("e2e.unattributed_s", median(unattributed));
    }

    server.requestShutdown(true);
    serving.join();
}

} // namespace perfbench
