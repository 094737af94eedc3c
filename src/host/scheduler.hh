/**
 * @file
 * The accelerated dispatch engine -- paper Figure 7 and Section IV.
 *
 * One event-driven engine drives marshalled targets through the IR
 * units of every card of a fleet lease.  Fresh targets are fed
 * under one of two policies:
 *
 *  - SynchronousParallel: transfer a batch of numUnits targets,
 *    launch all units, and wait for every unit to finish before
 *    flushing and starting the next batch.  Pruning-induced
 *    runtime variance leaves most units idle waiting for the
 *    slowest target.
 *
 *  - AsynchronousParallel: each unit's completion response (polled
 *    from the MMIO "response valid" register) immediately triggers
 *    the DMA + launch of the next pending target on that unit,
 *    keeping all units busy (the paper's 6.2x average gain).
 *
 * Placement: a one-card fleet runs the whole list in order; more
 * cards take shards of FleetConfig::shardTargets, round-robin or,
 * with stealing, greedily by estimated load (LPT).  Every target's
 * datapath result is precomputed on a thread pool -- it is a pure
 * function of the marshalled bytes -- so LPT has its costs and the
 * event loop only replays cycle costs.
 *
 * Hardening is optional state on the same run.  With a HardenPolicy
 * attached, the engine adds what a deployed cloud-FPGA driver needs
 * (docs/ROBUSTNESS.md): CRC-32 checks of the input images before
 * ir_start and of the output buffers at the response, a watchdog
 * sweep when the event queue goes quiet with targets in flight,
 * bounded retry preferring another unit, unit quarantine, software
 * fallback, and migration off a wedged card.  Each card's
 * FleetConfig::cardPlans fault schedule is attached to it, and a
 * card with a non-empty plan computes from the bytes in device
 * memory, so undetected corruption propagates.  Fault-free, the
 * hardened run is cycle-identical to the plain one.
 */

#ifndef IRACC_HOST_SCHEDULER_HH
#define IRACC_HOST_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "accel/card_fleet.hh"
#include "accel/fpga_system.hh"
#include "fault/fault.hh"
#include "obs/latency_histogram.hh"
#include "realign/marshal.hh"

namespace iracc {

/** Scheduling policy for dispatching targets to units. */
enum class SchedulePolicy {
    SynchronousParallel,
    AsynchronousParallel,
};

/** @return display name of a policy. */
const char *schedulePolicyName(SchedulePolicy policy);

/** Outcome of one dispatch run, plain or hardened. */
struct ScheduleResult
{
    /**
     * Per-target results, indexed like the input list: the
     * datapath result with `output` read back from device memory
     * (the host model's on a software fallback, all-zero flags on
     * a failed target).  Bit-identical for any placement.
     */
    std::vector<IrComputeResult> results;

    /**
     * Makespan: the maximum final cycle over the cards.  Cards run
     * in parallel on private virtual timelines, so the fleet
     * finishes when its slowest card does.
     */
    Cycle makespan = 0;

    /** Simulated FPGA wall-clock seconds (makespan / clock). */
    double fpgaSeconds = 0.0;

    /**
     * System statistics: byte/target/command counters summed over
     * cards, totalCycles = makespan, unit utilization weighted by
     * each card's cycles; `whd` counts each target's final attempt
     * only.
     */
    FpgaRunStats fpga;

    /**
     * Counters merged over cards (perf.enabled == false unless the
     * AccelConfig asked for counters/tracing); card k's trace
     * events carry pid k (perf.pidSpan = card count).
     */
    PerfReport perf;

    /** Per-card counter snapshots, ascending card id. */
    std::vector<PerfReport> cardPerf;

    /** Per-unit execution records, concatenated per card. */
    std::vector<UnitTimelineEntry> timeline;

    /** Per-card dispatch accounting (shards, steals, busy). */
    FleetExecStats fleet;

    /** Hardened runs: recovery-event counters and run health. */
    RecoveryStats recovery;
    RunStatus status = RunStatus::Ok;

    /**
     * Always-on per-target latency from first dispatch to
     * resolution (retries and watchdog waits included), in the
     * cycle domain and in modeled nanoseconds.  Deterministic;
     * merges exactly up through contigs and jobs.
     */
    obs::LatencyHistogram targetLatencyCycles;
    obs::LatencyHistogram targetLatencyNanos;
};

/**
 * Run every marshalled target through one FPGA system under the
 * given policy (plain, no fleet accounting).  The call drives the
 * event queue to completion.
 */
ScheduleResult scheduleTargets(
    FpgaSystem &sys, const std::vector<MarshalledTarget> &targets,
    SchedulePolicy policy);

/**
 * Run every marshalled target on @p lease's cards.  A one-card
 * fleet reproduces scheduleTargets cycle for cycle.  With @p harden
 * set, each card gets a fresh FaultInjector for its plan, and a
 * card whose units are all quarantined hands its unresolved
 * targets to the next card in id order (the last card falls back
 * to software, or fails them, per policy).  The lease's `stats`
 * are updated with this run's accounting.
 */
ScheduleResult scheduleFleetTargets(
    FleetLease &lease, const std::vector<MarshalledTarget> &targets,
    SchedulePolicy policy, const HardenPolicy *harden = nullptr);

} // namespace iracc

#endif // IRACC_HOST_SCHEDULER_HH
