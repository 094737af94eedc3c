#include "core/stage_pipeline.hh"

#include <string>

#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace iracc {

std::vector<ConsensusDecision>
SoftwareExecuteStage::execute(const PreparedContig &prepared,
                              uint64_t rng_seed, BackendRunResult &run)
{
    Timer t;
    std::vector<ConsensusDecision> decisions =
        executeStageSoftware(prepared, cfg, rng_seed, &run.stats.whd);
    run.stageTimes.executeSeconds = t.seconds();
    return decisions;
}

std::vector<ConsensusDecision>
AcceleratedExecuteStage::execute(const PreparedContig &prepared,
                                 uint64_t rng_seed,
                                 BackendRunResult &run)
{
    (void)rng_seed; // the accelerated datapath is RNG-free
    panic_if(prepared.marshalled.size() != prepared.inputs.size(),
             "accelerated Execute stage needs marshalled targets "
             "(prepareStage(..., marshal=true))");
    FleetLease lease = fleet.lease();
    ScheduleResult sched = scheduleFleetTargets(
        lease, prepared.marshalled, policy, harden);

    // Translate raw accelerator outputs into decisions (host work,
    // measured separately from the simulated FPGA time).
    Timer host_timer;
    std::vector<ConsensusDecision> decisions;
    decisions.reserve(prepared.inputs.size());
    for (size_t t = 0; t < prepared.inputs.size(); ++t) {
        const IrComputeResult &res = sched.results[t];
        decisions.push_back(outputToDecision(
            prepared.inputs[t], res.bestConsensus, res.output));
    }
    run.stats.whd = sched.fpga.whd;
    run.stageTimes.executeSeconds =
        sched.fpgaSeconds + host_timer.seconds();
    run.simulated = true;
    run.fpgaSeconds = sched.fpgaSeconds;
    run.unitUtilization = sched.fpga.meanUnitUtilization;
    if (sched.makespan > 0) {
        run.dmaFraction =
            static_cast<double>(sched.fpga.dmaBusyCycles) /
            static_cast<double>(sched.makespan);
    }
    run.perf = std::move(sched.perf);
    run.recovery = sched.recovery;
    run.status = sched.status;
    run.fleet = std::move(sched.fleet);
    run.targetLatencyCycles = std::move(sched.targetLatencyCycles);
    run.targetLatencyNanos = std::move(sched.targetLatencyNanos);
    return decisions;
}

BackendRunResult
runContigPipeline(const ReferenceGenome &ref, int32_t contig,
                  std::vector<Read> &reads,
                  const TargetCreationParams &targets,
                  ExecuteStage &exec, uint32_t prepare_threads,
                  const std::vector<uint32_t> *candidates,
                  uint64_t rng_seed, obs::Observability *obsv)
{
    BackendRunResult out;

    // Plan: target creation + read claiming (no mutation).
    obs::ScopedSpan plan_span(obsv, "plan", "realign");
    ContigPlan plan = planStage(ref, contig, reads, targets,
                                candidates);
    out.stageTimes.planSeconds = plan_span.close();
    obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Stage,
                obs::FrCode::StagePlan, 0, -1, plan.targets.size());

    // Prepare: consensus generation (+ marshalling when the
    // Execute stage consumes byte images).
    obs::ScopedSpan prepare_span(obsv, "prepare", "realign");
    PreparedContig prepared =
        prepareStage(ref, reads, plan,
                     exec.needsMarshalledTargets(), prepare_threads);
    out.stageTimes.prepareSeconds = prepare_span.close();
    obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Stage,
                obs::FrCode::StagePrepare, 0, -1,
                prepared.inputs.size());

    // Execute: the backend-specific kernel, which records its own
    // stage seconds and device accounting in `out`.  The span
    // records host wall-clock of the call (for accelerated
    // backends that is the simulation run); the histogram below
    // records the modeled stage seconds that StageTimes reports.
    obs::ScopedSpan exec_span(obsv, "execute", "realign");
    std::vector<ConsensusDecision> decisions =
        exec.execute(prepared, rng_seed, out);
    exec_span.close();
    obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Stage,
                obs::FrCode::StageExecute, 0, -1,
                prepared.inputs.size(), out.targetLatencyCycles.max());

    // Apply: decision writeback + stats assembly (the kernel's
    // WhdStats are already in out.stats).
    obs::ScopedSpan apply_span(obsv, "apply", "realign");
    out.stats.merge(applyStage(prepared, decisions, reads));
    out.stageTimes.applySeconds = apply_span.close();
    obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Stage,
                obs::FrCode::StageApply, 0, -1,
                out.stats.readsRealigned);

    if (obsv && obsv->metrics) {
        obs::MetricsRegistry &reg = *obsv->metrics;
        reg.histogram("realign.stage.plan.seconds")
            .sample(out.stageTimes.planSeconds);
        reg.histogram("realign.stage.prepare.seconds")
            .sample(out.stageTimes.prepareSeconds);
        reg.histogram("realign.stage.execute.seconds")
            .sample(out.stageTimes.executeSeconds);
        reg.histogram("realign.stage.apply.seconds")
            .sample(out.stageTimes.applySeconds);
        reg.counter("realign.targets").add(out.stats.targets);
        reg.counter("realign.reads_considered")
            .add(out.stats.readsConsidered);
        reg.counter("realign.reads_realigned")
            .add(out.stats.readsRealigned);
        reg.counter("realign.consensuses_evaluated")
            .add(out.stats.consensusesEvaluated);

        // Fault/recovery counters, only when something happened so
        // fault-free runs keep a clean registry.
        const RecoveryStats &rec = out.recovery;
        if (rec.faultsInjected > 0) {
            reg.counter("fault.injected").add(rec.faultsInjected);
            for (size_t k = 0; k < kNumFaultKinds; ++k) {
                if (rec.faultsByKind[k] > 0) {
                    reg.counter(std::string("fault.injected.") +
                                faultKindName(
                                    static_cast<FaultKind>(k)))
                        .add(rec.faultsByKind[k]);
                }
            }
        }
        auto count = [&reg](const char *name, uint64_t value) {
            if (value > 0)
                reg.counter(name).add(value);
        };
        count("fault.checksum_input_catches",
              rec.checksumInputCatches);
        count("fault.checksum_output_catches",
              rec.checksumOutputCatches);
        count("fault.watchdog_catches", rec.watchdogCatches);
        count("fault.retries", rec.retries);
        count("fault.retry_successes", rec.retrySuccesses);
        count("fault.software_fallbacks", rec.softwareFallbacks);
        count("fault.quarantined_units", rec.quarantinedUnits);
        count("fault.quarantined_cards", rec.quarantinedCards);
        count("fault.migrated_targets", rec.migratedTargets);
        count("fault.stale_responses", rec.staleResponses);
        count("fault.failed_targets", rec.failedTargets);
        count("realign.contigs_degraded",
              out.status == RunStatus::Degraded ? 1 : 0);
        count("realign.contigs_failed",
              out.status == RunStatus::Failed ? 1 : 0);

        // Per-target latency percentiles (accelerated backends
        // only): exact merge into the job-wide distributions.
        if (out.targetLatencyCycles.count() > 0) {
            reg.latency("realign.target.latency_cycles")
                .merge(out.targetLatencyCycles);
            reg.latency("realign.target.latency_ns")
                .merge(out.targetLatencyNanos);
        }

        // Fleet dispatch accounting (accelerated backends only).
        if (out.fleet.enabled()) {
            reg.counter("fleet.card_busy_cycles")
                .add(out.fleet.busyCycles());
            count("fleet.steals", out.fleet.steals());
            count("fleet.migrations", out.fleet.migrations());
            obs::LatencyMetric &depth = reg.latency("fleet.queue_depth");
            for (const FleetCardExecStats &c : out.fleet.cards)
                depth.record(c.shards);
        }
    }
    out.seconds = out.stageTimes.hostSeconds() +
                  out.stageTimes.executeSeconds;
    return out;
}

} // namespace iracc
