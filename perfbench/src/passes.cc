/**
 * @file
 * The two single-process workloads.
 *
 * genome-stream: each pass is the production file-to-file path --
 * readFasta, SamLiteBatchSource, RealignSession::runStreamed on
 * `iracc` (1 card, job threads = hardware concurrency) and a sink
 * that writeSamLite()s each realigned group to a file -- timed from
 * input opened to output closed.  The output is checked against the
 * digest of a `native` in-memory run made in set-up.
 *
 * indel-dense: each pass copies the reads (untimed) and calls
 * RealignSession::run on `iracc`, then again on `native`; no file
 * I/O is timed.  The two outputs must be byte-identical with equal
 * RealignStats.
 */

#include <fstream>

#include "core/realign_job.hh"
#include "genomics/io.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/logging.hh"

namespace perfbench {

using namespace iracc;

namespace {

/** Passes measured at least, however long they take. */
constexpr int kMinPasses = kRssPasses;

/**
 * The program's own obs hook for one traced call: a metrics
 * registry plus a span tracer whose spans are imported into the
 * benchmark's log afterwards.
 */
struct ObsHook
{
    obs::MetricsRegistry registry;
    obs::SpanTracer tracer;
    obs::Observability ob{&registry, &tracer};
    double epoch = 0.0; ///< log time of the tracer's epoch

    explicit ObsHook(const SpanLog &log)
        : epoch(log.now() - tracer.nowUs() * 1e-6)
    {
    }
};

/** Run @p pass until @p budget seconds have gone, at least
 *  kMinPasses times. */
template <typename F>
void
loopFor(double budget, F pass)
{
    Clock::time_point t0 = Clock::now();
    for (int n = 0; n < kMinPasses || secondsSince(t0) < budget; ++n)
        pass();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
addRealignCounts(const RealignStats &s, Samples &out)
{
    out.add("realign.targets", static_cast<double>(s.targets));
    out.add("realign.consensuses",
            static_cast<double>(s.consensusesEvaluated));
    out.add("realign.reads_realigned",
            static_cast<double>(s.readsRealigned));
}

/** WHD kernel counters of one run whose Execute stage took
 *  @p execute_s host seconds. */
void
addWhd(const WhdStats &w, double execute_s, Samples &out)
{
    out.add("whd.comparisons", static_cast<double>(w.comparisons));
    out.add("whd.comparisons_unpruned",
            static_cast<double>(w.comparisonsUnpruned));
    out.add("whd.pruned_fraction", w.prunedFraction());
    out.add("whd.comparisons_per_s",
            ratio(static_cast<double>(w.comparisons), execute_s));
}

/** Simulated-card counters of one accelerated run whose Execute
 *  stage took @p execute_s host seconds. */
void
addAccel(const RealignJobResult &r, double execute_s, Samples &out)
{
    out.add("accel.modeled_cycles",
            static_cast<double>(r.perf.totalCycles));
    out.add("accel.unit_utilization", r.perf.meanUnitUtilization());
    out.add("accel.dma_fraction", r.perf.channelOccupancy("pcie-dma"));
    out.add("accel.target_latency_p50_us",
            static_cast<double>(r.targetLatencyNanos.p50()) * 1e-3);
    out.add("accel.target_latency_p90_us",
            static_cast<double>(r.targetLatencyNanos.p90()) * 1e-3);
    out.add("accel.host_s_per_modeled_s", ratio(execute_s, r.fpgaSeconds));
    out.add("fleet.card_busy_cycles",
            static_cast<double>(r.fleet.busyCycles()));
    out.add("fleet.steals", static_cast<double>(r.fleet.steals()));
}

// -- genome-stream ---------------------------------------------------

struct StreamPass
{
    double wall = 0.0;
    StreamRealignResult sr;
    bool writeOk = true;
    uint64_t records = 0;
    double start = 0.0; ///< log time (traced passes only)
    double end = 0.0;
};

StreamPass
streamPass(const RealignSession &session, const RealignJobConfig &cfg,
           const std::string &dir, SpanLog *log)
{
    StreamPass p;
    p.start = log ? log->now() : 0.0;
    Clock::time_point t0 = Clock::now();
    ReferenceGenome ref;
    {
        ScopedTimer t(log, "genomics.parse");
        ref = loadReference(dir + "/ref.fa");
    }
    std::ifstream sam(dir + "/reads.samlite");
    std::ofstream out(dir + "/out.samlite");
    SamLiteBatchSource source(sam, ref);
    TimedBatchSource timed(source, log);
    {
        ScopedTimer t(log, "core.run");
        p.sr = session.runStreamed(
            ref, timed,
            [&](std::vector<Read> &group) {
                ScopedTimer w(log, "genomics.write");
                writeSamLite(out, ref, group);
            },
            cfg);
    }
    {
        ScopedTimer t(log, "genomics.write");
        out.close();
    }
    p.wall = secondsSince(t0);
    p.end = log ? log->now() : 0.0;
    p.writeOk = !out.fail() && sam.is_open();
    p.records = source.records();
    return p;
}

void
checkStreamPass(const StreamPass &p, const std::string &dir,
                const Manifest &m, double *fpga, RunReport &rep)
{
    ++rep.attempted;
    const RealignJobResult &job = p.sr.job;
    std::string why;
    if (!p.sr.parseOk)
        why = "parse error: " + p.sr.parseError.describe();
    else if (!p.writeOk)
        why = "output write failed";
    else if (job.status != RunStatus::Ok)
        why = std::string("job finished ") + runStatusName(job.status);
    else if (std::to_string(digestFile(dir + "/out.samlite")) !=
             manifestGet(m, "oracle.digest"))
        why = "streamed output differs from the native oracle";
    else if (std::to_string(job.stats.targets) !=
                 manifestGet(m, "oracle.targets") ||
             std::to_string(job.stats.readsRealigned) !=
                 manifestGet(m, "oracle.reads_realigned"))
        why = "RealignStats differ from the native oracle";
    else if (*fpga >= 0.0 && job.fpgaSeconds != *fpga)
        why = "modeled FPGA seconds did not repeat exactly";
    if (*fpga < 0.0)
        *fpga = job.fpgaSeconds;
    if (!why.empty())
        rep.fail(why);
}

// -- indel-dense -----------------------------------------------------

struct DensePass
{
    double irSeconds = 0.0;
    double nativeSeconds = 0.0;
    RealignJobResult ir;
    RealignJobResult native;
    uint64_t irDigest = 0;
    uint64_t nativeDigest = 0;
    std::map<std::string, double> irSpans, nativeSpans;
    std::vector<std::pair<double, double>> e2e; ///< traced only
};

/** One timed RealignSession::run on a fresh copy of @p master. */
RealignJobResult
timedRun(const RealignSession &session, RealignJobConfig cfg,
         const ReferenceGenome &ref, const std::vector<Read> &master,
         SpanLog *log, double *seconds, uint64_t *digest,
         std::map<std::string, double> *spans,
         std::vector<std::pair<double, double>> *e2e)
{
    std::vector<Read> reads = master;
    std::unique_ptr<ObsHook> hook;
    if (log) {
        hook = std::make_unique<ObsHook>(*log);
        cfg.obs = &hook->ob;
    }
    RealignJobResult r;
    const double lo = log ? log->now() : 0.0;
    Clock::time_point t0 = Clock::now();
    {
        ScopedTimer t(log, "core.run");
        r = session.run(ref, reads, cfg);
    }
    *seconds = secondsSince(t0);
    if (log) {
        e2e->emplace_back(lo, log->now());
        *spans = log->importTracer(hook->tracer, hook->epoch);
    }
    *digest = digestBytes(samLite(ref, reads));
    return r;
}

DensePass
densePass(const RealignSession &ir, const RealignSession &native,
          const RealignJobConfig &cfg, const ReferenceGenome &ref,
          const std::vector<Read> &master, SpanLog *log)
{
    DensePass p;
    p.ir = timedRun(ir, cfg, ref, master, log, &p.irSeconds,
                    &p.irDigest, &p.irSpans, &p.e2e);
    p.native = timedRun(native, cfg, ref, master, log, &p.nativeSeconds,
                        &p.nativeDigest, &p.nativeSpans, &p.e2e);
    return p;
}

void
checkDensePass(const DensePass &p, uint64_t *digest, double *fpga,
               RunReport &rep)
{
    ++rep.attempted;
    const RealignStats &a = p.ir.stats;
    const RealignStats &b = p.native.stats;
    std::string why;
    if (p.ir.status != RunStatus::Ok || p.native.status != RunStatus::Ok)
        why = "a run did not finish ok";
    else if (p.irDigest != p.nativeDigest)
        why = "iracc and native realigned reads differ";
    else if (a.targets != b.targets ||
             a.readsConsidered != b.readsConsidered ||
             a.readsRealigned != b.readsRealigned ||
             a.consensusesEvaluated != b.consensusesEvaluated)
        why = "iracc and native RealignStats differ";
    else if (*digest != 0 && p.irDigest != *digest)
        why = "output changed between passes";
    else if (*fpga >= 0.0 && p.ir.fpgaSeconds != *fpga)
        why = "modeled FPGA seconds did not repeat exactly";
    *digest = p.irDigest;
    if (*fpga < 0.0)
        *fpga = p.ir.fpgaSeconds;
    if (!why.empty())
        rep.fail(why);
}

} // namespace

void
runGenomeStream(const Options &opt, RunReport &rep)
{
    const std::string &dir = opt.dir;
    Manifest m = readManifest(dir + "/manifest.txt");
    RealignJobConfig cfg;
    cfg.threads = opt.threads;
    RealignSession plain(makeBackend("iracc"), cfg);
    double fpga = -1.0;

    // Warm-up: page cache, allocator and lazy kernel dispatch.
    checkStreamPass(streamPass(plain, cfg, dir, nullptr), dir, m, &fpga,
                    rep);
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    int passes = 1;
    loopFor(budget, [&] {
        StreamPass p = streamPass(plain, cfg, dir, nullptr);
        checkStreamPass(p, dir, m, &fpga, rep);
        rep.e2e.add("e2e_s", p.wall);
        rep.e2e.add("modeled_fpga_s", p.sr.job.fpgaSeconds);
        if (++passes == kRssPasses)
            rep.e2e.add("peak_rss_mb", peakRssMb());
    });
    if (!opt.trace)
        return;

    // Traced passes: perf counters on, obs hook attached.
    RealignSession traced(makeBackend("iracc", true, false), cfg);
    const double in_mb = static_cast<double>(fileSize(dir + "/ref.fa") +
                                             fileSize(dir + "/reads.samlite")) /
                         1e6;
    loopFor(budget, [&] {
        SpanLog log;
        ObsHook hook(log);
        RealignJobConfig tcfg = cfg;
        tcfg.obs = &hook.ob;
        StreamPass p = streamPass(traced, tcfg, dir, &log);
        checkStreamPass(p, dir, m, &fpga, rep);
        std::map<std::string, double> obs_spans =
            log.importTracer(hook.tracer, hook.epoch);
        Samples &l = rep.layers;
        addLayerTimes(log.spans(), {{p.start, p.end}}, l);
        rep.e2e.add("traced_e2e_s", p.wall);
        const double out_mb =
            static_cast<double>(fileSize(dir + "/out.samlite")) / 1e6;
        double parse_s = 0.0, write_s = 0.0;
        for (const Span &s : log.spans()) {
            if (s.name == "genomics.parse")
                parse_s += s.end - s.start;
            else if (s.name == "genomics.write")
                write_s += s.end - s.start;
        }
        l.add("genomics.parse_mb_per_s", ratio(in_mb, parse_s));
        l.add("genomics.write_mb_per_s", ratio(out_mb, write_s));
        l.add("genomics.records", static_cast<double>(p.records));
        l.add("genomics.parse_errors", p.sr.parseOk ? 0.0 : 1.0);
        const RealignJobResult &job = p.sr.job;
        addRealignCounts(job.stats, l);
        addWhd(job.stats.whd, obs_spans["realign.execute"], l);
        addAccel(job, obs_spans["realign.execute"], l);
    });
}

void
runIndelDense(const Options &opt, RunReport &rep)
{
    const std::string &dir = opt.dir;
    ReferenceGenome ref = loadReference(dir + "/ref.fa");
    const std::vector<Read> master = loadReads(dir + "/reads.samlite", ref);
    RealignJobConfig cfg;
    cfg.threads = opt.threads;
    RealignSession ir(makeBackend("iracc"), cfg);
    RealignSession native(makeBackend("native"), cfg);
    uint64_t digest = 0;
    double fpga = -1.0;

    checkDensePass(densePass(ir, native, cfg, ref, master, nullptr),
                   &digest, &fpga, rep);
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    int passes = 1;
    loopFor(budget, [&] {
        DensePass p = densePass(ir, native, cfg, ref, master, nullptr);
        checkDensePass(p, &digest, &fpga, rep);
        rep.e2e.add("e2e_s", p.irSeconds + p.nativeSeconds);
        rep.e2e.add("iracc.realign_s", p.irSeconds);
        rep.e2e.add("native.realign_s", p.nativeSeconds);
        rep.e2e.add("modeled_fpga_s", p.ir.fpgaSeconds);
        if (++passes == kRssPasses)
            rep.e2e.add("peak_rss_mb", peakRssMb());
    });
    if (!opt.trace)
        return;

    RealignSession ir_traced(makeBackend("iracc", true, false), cfg);
    loopFor(budget, [&] {
        SpanLog log;
        DensePass p = densePass(ir_traced, native, cfg, ref, master, &log);
        checkDensePass(p, &digest, &fpga, rep);
        Samples &l = rep.layers;
        addLayerTimes(log.spans(), p.e2e, l);
        rep.e2e.add("traced_e2e_s", p.irSeconds + p.nativeSeconds);
        addRealignCounts(p.ir.stats, l);
        // The software run's Execute span is pure WHD kernel time;
        // the accelerated one also runs the cycle model.
        addWhd(p.native.stats.whd, p.nativeSpans["realign.execute"], l);
        addAccel(p.ir, p.irSpans["realign.execute"], l);
    });
}

} // namespace perfbench
