#include "core/realign_job.hh"

#include <algorithm>
#include <map>
#include <string>
#include <thread>

#include "core/postmortem.hh"
#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"

namespace iracc {

namespace {

/**
 * Fold one contig's result into @p job and append it to
 * `job.contigs`.  The job barrier (ascending contig order) and the
 * streaming run (stream order) both reduce through this one
 * function, so for an ascending stream the streamed job's
 * accounting equals the in-memory job's however the stream was
 * cut into groups.
 */
void
foldContig(RealignJobResult &job, ContigJobResult &&c)
{
    const BackendRunResult &run = c.run;
    job.stats.merge(run.stats);
    job.seconds += run.seconds;
    job.criticalPathSeconds =
        std::max(job.criticalPathSeconds, run.seconds);
    job.fpgaSeconds += run.fpgaSeconds;
    job.simulated = job.simulated || run.simulated;
    // Fleet runs already span one pid per card; stride the contig
    // id so merged traces keep one process per (contig, card).
    // Single-card runs keep pid = contig.
    job.perf.merge(run.perf, static_cast<uint32_t>(c.contig),
                   run.perf.pidSpan > 1 ? run.perf.pidSpan : 0);
    job.fleet.merge(run.fleet);
    job.recovery.merge(run.recovery);
    job.targetLatencyCycles.merge(run.targetLatencyCycles);
    job.targetLatencyNanos.merge(run.targetLatencyNanos);
    job.status = worseStatus(job.status, run.status);
    if (run.status == RunStatus::Degraded)
        job.degradedContigs.push_back(c.contig);
    else if (run.status == RunStatus::Failed)
        job.failedContigs.push_back(c.contig);
    job.contigs.push_back(std::move(c));
}

} // namespace

RealignSession::RealignSession(
    std::unique_ptr<const RealignerBackend> backend,
    RealignJobConfig config)
    : be(std::move(backend)), cfg(config)
{
    fatal_if(!be, "RealignSession needs a backend");
    fatal_if(cfg.threads == 0, "realign job needs >= 1 thread");
}

RealignJobResult
RealignSession::run(const ReferenceGenome &ref,
                    std::vector<Read> &reads) const
{
    return run(ref, reads, cfg);
}

RealignJobResult
RealignSession::run(const ReferenceGenome &ref,
                    const std::vector<int32_t> &contigs,
                    std::vector<Read> &reads) const
{
    return run(ref, contigs, reads, cfg);
}

RealignJobResult
RealignSession::run(const ReferenceGenome &ref,
                    std::vector<Read> &reads,
                    const RealignJobConfig &job_cfg) const
{
    std::vector<int32_t> contigs;
    contigs.reserve(8);
    for (const Read &r : reads) {
        if (!std::binary_search(contigs.begin(), contigs.end(),
                                r.contig)) {
            contigs.insert(std::lower_bound(contigs.begin(),
                                            contigs.end(), r.contig),
                           r.contig);
        }
    }
    return run(ref, contigs, reads, job_cfg);
}

RealignJobResult
RealignSession::run(const ReferenceGenome &ref,
                    const std::vector<int32_t> &contigs,
                    std::vector<Read> &reads,
                    const RealignJobConfig &job_cfg) const
{
    // Shadow the session config on purpose: everything below reads
    // the per-call configuration.
    const RealignJobConfig &cfg = job_cfg;
    fatal_if(cfg.threads == 0, "realign job needs >= 1 thread");
    Timer wall;
    RealignJobResult job;

    // The submitting thread gets driver coordinates (contig -1)
    // for the job-lifecycle events; each contig's worker installs
    // its own context in runOne below.
    obs::FlightContext driverCtx(-1);
    if (contigs.empty()) {
        job.wallSeconds = wall.seconds();
        return job;
    }

    // Partition the read set by contig once; each contig's worker
    // only ever touches its own (disjoint) read indices, so the
    // shared read vector can be mutated concurrently.
    std::map<int32_t, std::vector<uint32_t>> byContig;
    for (int32_t c : contigs)
        byContig[c]; // realign requested contigs even if empty
    for (uint32_t i = 0; i < reads.size(); ++i) {
        auto it = byContig.find(reads[i].contig);
        if (it != byContig.end())
            it->second.push_back(i);
    }

    std::vector<int32_t> order;
    order.reserve(byContig.size());
    for (const auto &kv : byContig)
        order.push_back(kv.first);

    const FleetConfig *shape = be->fleetShape();
    obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                obs::FrCode::JobStart, 0, -1, order.size(),
                reads.size(), shape ? shape->cards : 0,
                shape && shape->stealing ? 1 : 0);

    // Workers beyond the contig count or the physical core count
    // only add contention (each accelerated contig runs its own
    // cycle-level simulation, a cache-heavy CPU-bound job), so cap
    // at both.  Results are bit-identical for any worker count; the
    // cap only affects wall-clock.
    const uint32_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    const uint32_t workers = static_cast<uint32_t>(std::min<size_t>(
        std::min<size_t>(cfg.threads, hw), order.size()));

    // Per-contig results land in preallocated slots and are merged
    // in ascending contig order at the barrier, so the job result
    // is bit-identical for any worker count.
    obs::Observability *obsv = cfg.obs;
    std::vector<ContigJobResult> slots(order.size());
    // Skip markers for cooperatively cancelled contigs; written by
    // the worker that owned the slot, read after the barrier.
    std::vector<uint8_t> skipped(order.size(), 0);
    std::atomic<uint64_t> contigsDone{0};
    auto notifyProgress = [&](size_t i, bool skip) {
        if (!cfg.onProgress)
            return;
        RealignJobProgress p;
        p.contig = order[i];
        p.contigsDone =
            contigsDone.fetch_add(1, std::memory_order_relaxed) + 1;
        p.contigsTotal = order.size();
        p.skipped = skip;
        if (skip) {
            p.status = RunStatus::Failed;
        } else {
            p.status = slots[i].run.status;
            p.targets = slots[i].run.stats.targets;
            p.vtime = slots[i].run.fleet.busyCycles();
        }
        cfg.onProgress(p);
    };
    auto runOne = [&](size_t i) {
        const int32_t contig = order[i];
        obs::FlightContext fctx(contig);
        slots[i].contig = contig;
        // Cooperative cancellation: a contig that has not started
        // when the token trips is skipped outright -- its reads
        // stay unrealigned (the Failed semantic) and the worker
        // never touches the fleet.
        if (cfg.cancel &&
            cfg.cancel->load(std::memory_order_relaxed)) {
            skipped[i] = 1;
            slots[i].run.status = RunStatus::Failed;
            obs::frEmit(obs::FrSeverity::Warn, obs::FrCategory::Job,
                        obs::FrCode::ContigSkipped, 0, -1,
                        byContig[contig].size());
            notifyProgress(i, true);
            return;
        }
        obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                    obs::FrCode::ContigStart, 0, -1,
                    byContig[contig].size());
        obs::ScopedSpan span(obsv,
                             obsv && obsv->on()
                                 ? "contig " + std::to_string(contig)
                                 : std::string(),
                             "realign.job",
                             "realign.job.contig_seconds");
        auto exec = be->makeExecuteStage(workers);
        slots[i].run = runContigPipeline(
            ref, contig, reads, be->targetParams(), *exec,
            be->hostThreads(), &byContig[contig], cfg.seed, obsv);
        obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                    obs::FrCode::ContigDone, 0, -1,
                    static_cast<uint64_t>(slots[i].run.status),
                    slots[i].run.stats.targets,
                    slots[i].run.fleet.busyCycles());
        notifyProgress(i, false);
    };

    if (workers <= 1) {
        for (size_t i = 0; i < order.size(); ++i)
            runOne(i);
    } else {
        ThreadPool pool(workers);
        if (obsv && obsv->metrics)
            obs::instrumentThreadPool(pool, *obsv->metrics,
                                      "realign.pool");
        for (size_t i = 0; i < order.size(); ++i)
            pool.submit([&runOne, i] { runOne(i); });
        // The barrier-wait span measures how long the submitting
        // thread idles at the fork-join point.
        obs::ScopedSpan barrier(obsv, "job barrier", "realign.job",
                                "realign.job.barrier_wait_seconds");
        pool.waitIdle();
        barrier.close();
    }

    obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                obs::FrCode::Barrier, 0, -1, order.size());
    if (obsv && obsv->metrics)
        obsv->metrics->counter("realign.job.contigs")
            .add(order.size());

    // Barrier reached: deterministic in-order reduction.
    job.contigs.reserve(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
        if (skipped[i]) {
            job.cancelled = true;
            job.skippedContigs.push_back(slots[i].contig);
        }
        foldContig(job, std::move(slots[i]));
    }
    if (job.cancelled) {
        obs::frEmit(obs::FrSeverity::Warn, obs::FrCategory::Job,
                    obs::FrCode::JobCancelled, 0, -1,
                    job.skippedContigs.size(), order.size());
    }
    obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                obs::FrCode::JobDone, 0, -1,
                static_cast<uint64_t>(job.status),
                job.degradedContigs.size(),
                job.failedContigs.size());

    if (!cfg.postmortemDir.empty() &&
        (cfg.postmortemAlways || job.status != RunStatus::Ok)) {
        PostmortemOptions opt;
        opt.dir = cfg.postmortemDir;
        opt.backend = be->name();
        opt.seed = cfg.seed;
        if (shape != nullptr) {
            opt.cards = shape->cards;
            opt.stealing = shape->stealing;
            for (const FaultPlan &plan : shape->cardPlans)
                opt.faultPlans.push_back(plan.describe());
        }
        job.postmortemPath = writePostmortemBundle(
            job, opt, obsv ? obsv->metrics : nullptr);
    }

    job.wallSeconds = wall.seconds();
    return job;
}

RealignJobResult
RealignSession::runContig(const ReferenceGenome &ref, int32_t contig,
                          std::vector<Read> &reads) const
{
    return run(ref, std::vector<int32_t>{contig}, reads);
}

StreamRealignResult
RealignSession::runStreamed(
    const ReferenceGenome &ref, ReadBatchSource &source,
    const std::function<void(std::vector<Read> &reads)> &sink) const
{
    return runStreamed(ref, source, sink, cfg);
}

StreamRealignResult
RealignSession::runStreamed(
    const ReferenceGenome &ref, ReadBatchSource &source,
    const std::function<void(std::vector<Read> &reads)> &sink,
    const RealignJobConfig &job_cfg) const
{
    fatal_if(job_cfg.threads == 0, "realign job needs >= 1 thread");
    Timer wall;
    StreamRealignResult out;
    uint64_t contigsDoneBefore = 0;

    // Groups of up to `threads` contig batches keep every worker
    // busy while bounding memory at threads x the largest batch.
    const size_t groupSize = job_cfg.threads;
    bool end = false;
    while (!end) {
        if (job_cfg.cancel &&
            job_cfg.cancel->load(std::memory_order_relaxed)) {
            out.job.cancelled = true;
            break;
        }
        std::vector<int32_t> contigs;
        std::vector<Read> reads;
        while (contigs.size() < groupSize) {
            int32_t contig = 0;
            std::vector<Read> batch;
            StreamStatus st =
                source.nextBatch(&contig, &batch, &out.parseError);
            if (st == StreamStatus::End) {
                end = true;
                break;
            }
            if (st == StreamStatus::Error) {
                // Discard the partially collected group: the
                // caller fails the job, so realigning it would
                // only waste cycles on output that gets dropped.
                out.parseOk = false;
                out.job.wallSeconds = wall.seconds();
                return out;
            }
            contigs.push_back(contig);
            ++out.batches;
            reads.reserve(reads.size() + batch.size());
            for (Read &r : batch)
                reads.push_back(std::move(r));
        }
        if (contigs.empty())
            break;

        RealignJobConfig groupCfg = job_cfg;
        if (job_cfg.onProgress) {
            const uint64_t base = contigsDoneBefore;
            const uint64_t seen = base + contigs.size();
            groupCfg.onProgress =
                [base, seen,
                 &job_cfg](const RealignJobProgress &p) {
                    RealignJobProgress q = p;
                    q.contigsDone += base;
                    // Lower bound: the stream's length is unknown.
                    q.contigsTotal = seen;
                    job_cfg.onProgress(q);
                };
        }
        RealignJobResult group = run(ref, contigs, reads, groupCfg);
        for (ContigJobResult &c : group.contigs)
            foldContig(out.job, std::move(c));
        out.job.cancelled = out.job.cancelled || group.cancelled;
        out.job.skippedContigs.insert(out.job.skippedContigs.end(),
                                      group.skippedContigs.begin(),
                                      group.skippedContigs.end());
        if (!group.postmortemPath.empty())
            out.job.postmortemPath = group.postmortemPath;
        contigsDoneBefore += contigs.size();
        out.readsStreamed += reads.size();
        sink(reads);
        if (out.job.cancelled)
            break;
    }

    out.job.wallSeconds = wall.seconds();
    return out;
}

RealignSession
makeSession(const std::string &backend_name, RealignJobConfig config,
            bool perf_counters, bool perf_trace)
{
    return RealignSession(
        makeBackend(backend_name, perf_counters, perf_trace), config);
}

} // namespace iracc
