#include "host/scheduler.hh"

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "accel/ir_compute.hh"
#include "obs/flight_recorder.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace iracc {

const char *
schedulePolicyName(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::SynchronousParallel:
        return "synchronous-parallel";
      case SchedulePolicy::AsynchronousParallel:
        return "asynchronous-parallel";
    }
    panic("invalid SchedulePolicy");
}

namespace {

/** Hardware attempts per target before falling back. */
constexpr uint32_t kMaxAttempts = 3;

/** Output-corruption strikes before a unit is quarantined
 *  (wedged units are quarantined immediately). */
constexpr uint32_t kQuarantineStrikes = 2;

/** Cycles the event loop runs between sweep points: a base plus
 *  this much per in-flight target. */
constexpr Cycle kWatchdogBaseCycles = Cycle{1} << 24;
constexpr Cycle kWatchdogPerTargetCycles = Cycle{1} << 24;

/** Lifecycle of one target on a card. */
enum class Phase : uint8_t {
    Pending,    ///< waiting for a usable unit
    Dispatched, ///< DMA issued, inputs not yet landed
    Launched,   ///< ir_start accepted, waiting for the response
    Resolved,   ///< result recorded (or handed to another card)
};

struct Slot
{
    size_t target = 0;     ///< global target index
    TargetDescriptor desc; ///< device-memory placement
    Phase phase = Phase::Pending;
    uint32_t attempts = 0; ///< hardware attempts so far
    uint64_t epoch = 0;    ///< bumped when an attempt is abandoned
    int32_t unit = -1;     ///< unit of the current attempt
    int32_t lastUnit = -1; ///< unit of the previous attempt
    bool batched = false;  ///< member of the running sync batch
    Cycle readyAt = 0;     ///< first dispatch (latency origin)
};

struct UnitState
{
    bool reserved = false;    ///< an attempt owns it
    bool quarantined = false; ///< retired for the rest of the run
    uint32_t strikes = 0;     ///< output-corruption count
};

/** What every card of one run shares. */
struct RunContext
{
    const std::vector<MarshalledTarget> &targets;
    const std::vector<IrComputeResult> &precomputed;
    SchedulePolicy policy;
    const HardenPolicy *harden; ///< null = plain run
    ScheduleResult &out;
};

/**
 * Evaluate every target's datapath result up front on worker
 * threads.  Each result is a pure function of the marshalled bytes
 * and the unit configuration, so any card placement of a target
 * yields the same bits.
 */
std::vector<IrComputeResult>
precomputeResults(const AccelConfig &cfg,
                  const std::vector<MarshalledTarget> &targets)
{
    std::vector<IrComputeResult> precomputed(targets.size());
    ThreadPool pool(std::min<size_t>(
        8,
        std::max<size_t>(1, std::thread::hardware_concurrency())));
    pool.parallelFor(targets.size(), [&](size_t t) {
        precomputed[t] = irCompute(targets[t],
                                   cfg.dataParallelWidth,
                                   cfg.pruning);
    });
    return precomputed;
}

/** CRC-32 of the device bytes of each (address, length) range,
 *  chained. */
uint32_t
deviceChecksum(DeviceMemory &mem,
               std::initializer_list<std::pair<uint64_t, uint64_t>>
                   ranges)
{
    uint32_t crc = 0;
    for (const auto &[addr, len] : ranges) {
        std::vector<uint8_t> buf = mem.readVec(addr, len);
        crc = crc32(buf.data(), buf.size(), crc);
    }
    return crc;
}

/**
 * One card's dispatch over the targets placed on it: fresh targets
 * in placement order under the run's policy, failed attempts
 * re-entering at the next sweep point.
 */
class CardRun
{
  public:
    CardRun(RunContext &ctx, FpgaSystem &sys, int32_t card,
            const std::vector<size_t> &order, bool faulty,
            bool can_migrate)
        : ctx(ctx), rec(ctx.out.recovery), sys(sys), card(card),
          faulty(faulty), canMigrate(can_migrate),
          units(sys.numUnits()), unresolved(order.size())
    {
        slots.resize(order.size());
        for (size_t s = 0; s < order.size(); ++s) {
            slots[s].target = order[s];
            slots[s].desc =
                sys.allocateTarget(ctx.targets[order[s]]);
        }
    }

    // Event callbacks hold `this`.
    CardRun(const CardRun &) = delete;
    CardRun &operator=(const CardRun &) = delete;

    /**
     * Drive every slot to resolution.  @return the targets handed
     * off because every unit of this card was quarantined.
     */
    std::vector<size_t>
    drive()
    {
        noteDispatch(resume());
        while (unresolved > 0) {
            sys.events().runUntil(
                sys.now() + kWatchdogBaseCycles +
                kWatchdogPerTargetCycles *
                    static_cast<Cycle>(inFlight));
            if (sys.events().empty() && unresolved > 0) {
                panic_if(ctx.harden == nullptr,
                         "scheduler finished with %zu/%zu targets "
                         "unresolved",
                         unresolved, slots.size());
                watchdogSweep();
            }
            noteDispatch(redispatchFailed() + resume());
            if (inFlight == 0 && unresolved > 0)
                strandPending();
        }
        return std::move(stranded);
    }

    /** Each resolved target's wait on this card, in cycles. */
    const obs::LatencyHistogram &latency() const { return latencyCycles; }

  private:
    const MarshalledTarget &
    marshalled(size_t s) const
    {
        return ctx.targets[slots[s].target];
    }

    bool
    usable(uint32_t u) const
    {
        return !units[u].reserved && !units[u].quarantined;
    }

    void
    noteDispatch(size_t dispatched)
    {
        if (dispatched > 0) {
            obs::frEmit(obs::FrSeverity::Debug,
                        obs::FrCategory::Sched,
                        obs::FrCode::Dispatch, sys.now(), card,
                        dispatched);
        }
    }

    /** Trace one recovery event on the scheduler track. */
    void
    trace(const std::string &name, uint64_t id)
    {
        if (PerfMonitor *p = sys.perf()) {
            p->traceSpan(name, "fault", kTraceTidScheduler,
                         sys.now(), sys.now() + 1, id);
        }
    }

    /**
     * Start one attempt of slot @p s on unit @p u: DMA its three
     * input arrays as one burst; @p on_landed fires when the last
     * array has landed in device memory.
     */
    void
    dispatch(size_t s, uint32_t u, std::function<void()> on_landed)
    {
        Slot &sl = slots[s];
        sl.unit = static_cast<int32_t>(u);
        units[u].reserved = true;
        if (sl.attempts > 0) {
            ++rec.retries;
            trace("retry target " + std::to_string(sl.target),
                  sl.target);
            obs::frEmit(obs::FrSeverity::Info,
                        obs::FrCategory::Harden, obs::FrCode::Retry,
                        sys.now(), card, sl.target,
                        sl.attempts + 1);
        } else {
            sl.readyAt = sys.now();
        }
        ++sl.attempts;
        sl.phase = Phase::Dispatched;
        ++inFlight;

        const MarshalledTarget &mt = marshalled(s);
        auto addr = [&sl](IrBuffer b) {
            return sl.desc.bufferAddr[static_cast<size_t>(b)];
        };
        sys.dmaToDevice(addr(IrBuffer::ConsensusBases),
                        mt.consensusData.data(),
                        mt.consensusData.size(), [] {});
        sys.dmaToDevice(addr(IrBuffer::ReadBases),
                        mt.readData.data(), mt.readData.size(),
                        [] {});
        sys.dmaToDevice(addr(IrBuffer::ReadQuals),
                        mt.qualData.data(), mt.qualData.size(),
                        std::move(on_landed));
    }

    /** Continuation that launches slot @p s once it has landed. */
    std::function<void()>
    launcher(size_t s)
    {
        return [this, s, epoch = slots[s].epoch] {
            landed(s, epoch);
        };
    }

    /** Inputs landed: verify them (hardened), then ir_start. */
    void
    landed(size_t s, uint64_t epoch)
    {
        Slot &sl = slots[s];
        if (sl.epoch != epoch) {
            ++rec.staleResponses;
            return;
        }
        const size_t t = sl.target;
        const uint32_t u = static_cast<uint32_t>(sl.unit);
        if (ctx.harden != nullptr &&
            inputDeviceChecksum(sl) != inputChecksum(marshalled(s))) {
            ++rec.checksumInputCatches;
            trace("checksum-in target " + std::to_string(t), t);
            obs::frEmit(obs::FrSeverity::Warn,
                        obs::FrCategory::Harden,
                        obs::FrCode::CrcMismatch, sys.now(), card, t,
                        u, 0);
            // The DMA path corrupted the images; the unit never
            // ran, so no unit is blamed.  Retry re-DMAs from the
            // host copy.
            abandon(s);
            attemptEnded(s, u);
            return;
        }
        sl.phase = Phase::Launched;
        // A faulty card computes from the very bytes in device
        // memory, so an undetected input corruption propagates.
        sys.runTarget(
            u, sl.desc, t,
            [this, s, u, epoch](IrComputeResult &&res) {
                responded(s, u, epoch, std::move(res));
            },
            faulty ? nullptr : &ctx.precomputed[t]);
    }

    /** Unit @p u answered for slot @p s. */
    void
    responded(size_t s, uint32_t u, uint64_t epoch,
              IrComputeResult &&res)
    {
        Slot &sl = slots[s];
        if (sl.epoch != epoch || sl.phase != Phase::Launched) {
            ++rec.staleResponses;
            return;
        }
        if (ctx.harden != nullptr &&
            outputDeviceChecksum(sl) != outputChecksum(res.output)) {
            ++rec.checksumOutputCatches;
            trace("checksum-out target " + std::to_string(sl.target),
                  sl.target);
            obs::frEmit(obs::FrSeverity::Warn,
                        obs::FrCategory::Harden,
                        obs::FrCode::CrcMismatch, sys.now(), card,
                        sl.target, u, 1);
            // The unit's MemWriters corrupted the buffers; it
            // finished (it is idle again) but takes a strike.
            if (++units[u].strikes >= kQuarantineStrikes)
                quarantine(u);
            abandon(s);
            attemptEnded(s, u);
            return;
        }
        // The device copy is the architectural result.
        res.output = sys.readOutputs(sl.desc);
        --inFlight;
        if (sl.attempts > 1)
            ++rec.retrySuccesses;
        resolve(s, std::move(res));
        attemptEnded(s, u);
    }

    /**
     * An attempt on unit @p u ended: feed the unit its next fresh
     * target (async), or close the batch barrier (sync).
     */
    void
    attemptEnded(size_t s, uint32_t u)
    {
        if (ctx.policy == SchedulePolicy::AsynchronousParallel) {
            if (usable(u) && nextFresh < slots.size()) {
                const size_t fresh = nextFresh++;
                dispatch(fresh, u, launcher(fresh));
            }
        } else if (slots[s].batched) {
            slots[s].batched = false;
            if (--batchOutstanding == 0)
                startBatch();
        }
    }

    /**
     * Synchronous-parallel: DMA one batch of fresh targets to the
     * usable units and launch them all once the whole batch has
     * landed (the paper's initial design).  @return batch size.
     */
    size_t
    startBatch()
    {
        std::vector<std::pair<size_t, uint64_t>> batch;
        std::vector<uint32_t> batchUnits;
        for (uint32_t u = 0;
             u < units.size() && nextFresh < slots.size(); ++u) {
            if (!usable(u))
                continue;
            batch.emplace_back(nextFresh, slots[nextFresh].epoch);
            batchUnits.push_back(u);
            slots[nextFresh++].batched = true;
        }
        batchOutstanding = batch.size();
        for (size_t i = 0; i < batch.size(); ++i) {
            std::function<void()> on_landed = [] {};
            if (i + 1 == batch.size()) {
                on_landed = [this, batch] {
                    for (const auto &[s, epoch] : batch)
                        landed(s, epoch);
                };
            }
            dispatch(batch[i].first, batchUnits[i],
                     std::move(on_landed));
        }
        return batch.size();
    }

    /** Feed fresh targets to idle usable units per the policy.
     *  @return targets dispatched. */
    size_t
    resume()
    {
        if (ctx.policy == SchedulePolicy::SynchronousParallel)
            return batchOutstanding == 0 ? startBatch() : 0;
        size_t dispatched = 0;
        for (uint32_t u = 0;
             u < units.size() && nextFresh < slots.size(); ++u) {
            if (usable(u)) {
                dispatch(nextFresh, u, launcher(nextFresh));
                ++nextFresh;
                ++dispatched;
            }
        }
        return dispatched;
    }

    /**
     * Re-dispatch failed attempts, in slot order, each on its own
     * DMA burst, preferring a unit other than the one that failed
     * it.  @return attempts dispatched.
     */
    size_t
    redispatchFailed()
    {
        size_t dispatched = 0;
        for (size_t s = 0; s < nextFresh; ++s) {
            if (slots[s].phase != Phase::Pending)
                continue;
            int32_t unit = -1;
            for (uint32_t u = 0; u < units.size(); ++u) {
                if (!usable(u))
                    continue;
                unit = static_cast<int32_t>(u);
                if (unit != slots[s].lastUnit)
                    break;
            }
            if (unit < 0)
                break;
            dispatch(s, static_cast<uint32_t>(unit), launcher(s));
            ++dispatched;
        }
        return dispatched;
    }

    /**
     * The event queue went quiet with targets still in flight:
     * every one of them lost its completion path.  Reclaim them.
     */
    void
    watchdogSweep()
    {
        for (size_t s = 0; s < slots.size(); ++s) {
            Slot &sl = slots[s];
            if (sl.phase != Phase::Dispatched &&
                sl.phase != Phase::Launched)
                continue;
            // Dispatched: the DMA burst vanished before the unit
            // ever saw the target; the unit is blameless.
            // Launched: ir_start was accepted and no response came
            // back, so the unit is wedged (hang or lost response)
            // and can never be reused.
            const bool wedged = sl.phase == Phase::Launched;
            ++rec.watchdogCatches;
            trace("watchdog target " + std::to_string(sl.target),
                  sl.target);
            obs::frEmit(obs::FrSeverity::Warn,
                        obs::FrCategory::Harden,
                        obs::FrCode::WatchdogTrip, sys.now(), card,
                        sl.target,
                        wedged ? static_cast<uint64_t>(sl.unit)
                               : static_cast<uint64_t>(-1),
                        sys.now() - sl.readyAt);
            if (wedged)
                quarantine(static_cast<uint32_t>(sl.unit));
            if (sl.batched) {
                sl.batched = false;
                --batchOutstanding;
            }
            abandon(s);
        }
    }

    /**
     * No unit of this card is usable: hand every unresolved target
     * to the next card, or exhaust it here on the last one.
     */
    void
    strandPending()
    {
        for (size_t s = 0; s < slots.size(); ++s) {
            Slot &sl = slots[s];
            if (sl.phase != Phase::Pending)
                continue;
            if (!canMigrate) {
                exhausted(s);
                continue;
            }
            stranded.push_back(sl.target);
            ++rec.migratedTargets;
            trace("migrate target " + std::to_string(sl.target),
                  sl.target);
            sl.phase = Phase::Resolved;
            --unresolved;
        }
        nextFresh = slots.size();
    }

    /** Abandon slot @p s's current attempt (it failed). */
    void
    abandon(size_t s)
    {
        Slot &sl = slots[s];
        ++sl.epoch;
        releaseUnit(sl);
        if (sl.phase != Phase::Pending)
            --inFlight;
        sl.phase = Phase::Pending;
        if (sl.attempts >= kMaxAttempts)
            exhausted(s);
    }

    /** Hardware attempts exhausted: fall back or fail. */
    void
    exhausted(size_t s)
    {
        const size_t t = slots[s].target;
        if (ctx.harden->softwareFallback) {
            // The host model of the datapath on the pristine bytes.
            ++rec.softwareFallbacks;
            trace("fallback target " + std::to_string(t), t);
            obs::frEmit(obs::FrSeverity::Warn,
                        obs::FrCategory::Harden,
                        obs::FrCode::Fallback, sys.now(), card, t,
                        slots[s].attempts);
            resolve(s, IrComputeResult(ctx.precomputed[t]));
            return;
        }
        // Give up: a no-op result leaves the reads unchanged.
        const MarshalledTarget &mt = marshalled(s);
        IrComputeResult none;
        none.output.realignFlags.assign(mt.numReads, 0);
        none.output.newPositions.assign(mt.numReads, 0);
        ++rec.failedTargets;
        obs::frEmit(obs::FrSeverity::Error, obs::FrCategory::Harden,
                    obs::FrCode::TargetFailed, sys.now(), card, t,
                    slots[s].attempts);
        resolve(s, std::move(none));
    }

    /** Record slot @p s's final result and its latency. */
    void
    resolve(size_t s, IrComputeResult &&res)
    {
        Slot &sl = slots[s];
        ctx.out.results[sl.target] = std::move(res);
        // Always-on: the percentile histograms cost two bucket
        // increments per target, recorder or no recorder.
        const Cycle waited = sys.now() - sl.readyAt;
        latencyCycles.record(waited);
        ctx.out.targetLatencyNanos.record(static_cast<uint64_t>(
            sys.cyclesToSeconds(waited) * 1e9));
        if (PerfMonitor *p = sys.perf()) {
            p->traceSpan("target " + std::to_string(sl.target),
                         "sched", kTraceTidScheduler, sl.readyAt,
                         sys.now(), sl.target);
        }
        releaseUnit(sl);
        sl.phase = Phase::Resolved;
        --unresolved;
    }

    void
    releaseUnit(Slot &sl)
    {
        if (sl.unit >= 0) {
            units[sl.unit].reserved = false;
            sl.lastUnit = sl.unit;
            sl.unit = -1;
        }
    }

    /** Retire unit @p u for the rest of the run. */
    void
    quarantine(uint32_t u)
    {
        if (units[u].quarantined)
            return;
        units[u].quarantined = true;
        ++rec.quarantinedUnits;
        trace("quarantine unit " + std::to_string(u), u);
        obs::frEmit(obs::FrSeverity::Warn, obs::FrCategory::Harden,
                    obs::FrCode::Quarantine, sys.now(), card, u,
                    units[u].strikes);
    }

    /** CRC of the device copy of a slot's three input buffers. */
    uint32_t
    inputDeviceChecksum(const Slot &sl)
    {
        const MarshalledTarget &mt = ctx.targets[sl.target];
        const uint64_t *a = sl.desc.bufferAddr;
        return deviceChecksum(
            sys.memory(),
            {{a[static_cast<size_t>(IrBuffer::ConsensusBases)],
              mt.consensusData.size()},
             {a[static_cast<size_t>(IrBuffer::ReadBases)],
              mt.readData.size()},
             {a[static_cast<size_t>(IrBuffer::ReadQuals)],
              mt.qualData.size()}});
    }

    /** CRC of the device copy of a slot's two output buffers. */
    uint32_t
    outputDeviceChecksum(const Slot &sl)
    {
        const uint64_t *a = sl.desc.bufferAddr;
        return deviceChecksum(
            sys.memory(),
            {{a[static_cast<size_t>(IrBuffer::OutFlags)],
              sl.desc.numReads},
             {a[static_cast<size_t>(IrBuffer::OutPositions)],
              static_cast<uint64_t>(sl.desc.numReads) * 4}});
    }

    RunContext &ctx;
    RecoveryStats &rec;
    FpgaSystem &sys;
    int32_t card;
    bool faulty;     ///< compute from device bytes (plan attached)
    bool canMigrate; ///< a later card can take stranded targets
    std::vector<Slot> slots;
    std::vector<UnitState> units;
    size_t nextFresh = 0; ///< first never-dispatched slot
    size_t unresolved;
    size_t inFlight = 0;
    size_t batchOutstanding = 0;
    std::vector<size_t> stranded;
    obs::LatencyHistogram latencyCycles;
};

/**
 * Card @p sys's counter snapshot.  Its targetLatency is @p latency,
 * the scheduler's own record of the card's target waits, so each
 * wait is recorded once.
 */
PerfReport
cardPerfReport(const FpgaSystem &sys, const obs::LatencyHistogram &latency)
{
    PerfReport rep = sys.perfReport();
    if (rep.enabled)
        rep.targetLatency = latency;
    return rep;
}

/** Where each card's targets go, in dispatch order. */
struct Placement
{
    std::vector<std::vector<size_t>> orders;
    std::vector<uint64_t> shards;
    std::vector<uint64_t> steals;
};

/**
 * Place the targets on @p cards cards in shards of @p shard
 * targets.  One card runs the whole list in order.  Without
 * stealing, shard s lives on its round-robin home s % cards.
 * With stealing, shards are taken heaviest-first (by precomputed
 * datapath cycles; ties to the lower shard index) and each goes to
 * the card with the least estimated load so far (ties to the
 * lowest card id); a shard off its home counts as a steal.
 * Heaviest-first both balances the cards and front-loads the
 * stragglers, so the small shards backfill the units behind them.
 */
Placement
placeShards(uint32_t cards, size_t shard, bool stealing,
            const std::vector<IrComputeResult> &precomputed)
{
    const size_t n = precomputed.size();
    const size_t numShards = (n + shard - 1) / shard;
    Placement p;
    p.orders.resize(cards);
    p.shards.assign(cards, 0);
    p.steals.assign(cards, 0);
    if (cards == 1) {
        p.orders[0].resize(n);
        std::iota(p.orders[0].begin(), p.orders[0].end(), size_t{0});
        p.shards[0] = numShards;
        return p;
    }

    std::vector<size_t> byCost(numShards);
    std::iota(byCost.begin(), byCost.end(), size_t{0});
    std::vector<uint64_t> cost(numShards, 0);
    if (stealing) {
        for (size_t t = 0; t < n; ++t)
            cost[t / shard] += precomputed[t].totalCycles();
        std::stable_sort(byCost.begin(), byCost.end(),
                         [&cost](size_t a, size_t b) {
                             return cost[a] > cost[b];
                         });
    }
    std::vector<uint64_t> load(cards, 0);
    for (size_t s : byCost) {
        uint32_t k = static_cast<uint32_t>(s % cards);
        if (stealing) {
            k = 0;
            for (uint32_t c = 1; c < cards; ++c) {
                if (load[c] < load[k])
                    k = c;
            }
        }
        std::vector<size_t> &order = p.orders[k];
        const size_t before = order.size();
        for (size_t t = s * shard; t < std::min(n, (s + 1) * shard);
             ++t)
            order.push_back(t);
        obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Sched,
                    obs::FrCode::ShardPlace, 0,
                    static_cast<int32_t>(k), s,
                    order.size() - before);
        load[k] += cost[s];
        ++p.shards[k];
        if (k != s % cards) {
            ++p.steals[k];
            obs::frEmit(obs::FrSeverity::Info,
                        obs::FrCategory::Sched,
                        obs::FrCode::ShardSteal, 0,
                        static_cast<int32_t>(k), s, s % cards);
        }
    }
    return p;
}

/** Fold card statistics into the fleet aggregate. */
void
foldFleetStats(FpgaRunStats &agg, const FpgaRunStats &card, bool first)
{
    if (first) {
        agg = card;
        return;
    }
    // Cards run in parallel: cycles take the max (fleet makespan),
    // work counters add, utilization averages weighted by cycles.
    double busy = agg.meanUnitUtilization *
                  static_cast<double>(agg.totalCycles);
    busy += card.meanUnitUtilization *
            static_cast<double>(card.totalCycles);
    Cycle denom = agg.totalCycles + card.totalCycles;
    agg.totalCycles = std::max(agg.totalCycles, card.totalCycles);
    agg.wallSeconds = std::max(agg.wallSeconds, card.wallSeconds);
    agg.targetsProcessed += card.targetsProcessed;
    agg.commandsIssued += card.commandsIssued;
    agg.dmaBytes += card.dmaBytes;
    agg.dmaBusyCycles += card.dmaBusyCycles;
    agg.ddrBusyCycles += card.ddrBusyCycles;
    agg.meanUnitUtilization =
        denom > 0 ? busy / static_cast<double>(denom) : 0.0;
}

} // anonymous namespace

ScheduleResult
scheduleFleetTargets(FleetLease &lease,
                     const std::vector<MarshalledTarget> &targets,
                     SchedulePolicy policy, const HardenPolicy *harden)
{
    const FleetConfig &fc = lease.config();
    const uint32_t cards = lease.cards();
    ScheduleResult out;
    out.results.resize(targets.size());
    std::vector<IrComputeResult> precomputed =
        precomputeResults(fc.card, targets);

    // Hardened: a fresh injector per card per lease, so occurrence
    // counters restart per contig.
    std::vector<FaultInjector> injectors;
    if (harden != nullptr) {
        injectors.reserve(cards);
        for (uint32_t k = 0; k < cards; ++k) {
            injectors.emplace_back(lease.cardPlan(k));
            FpgaSystem *sys = &lease.card(k);
            injectors[k].setObsContext(static_cast<int32_t>(k),
                                       [sys] { return sys->now(); });
            sys->attachFaults(&injectors[k]);
        }
    }

    Placement place = placeShards(cards, fc.shardTargets,
                                  fc.stealing, precomputed);

    // Cards run in id order on private timelines.  A wedged card's
    // stranded targets go ahead of the next card's own placement.
    RunContext ctx{targets, precomputed, policy, harden, out};
    std::vector<size_t> carry;
    for (uint32_t k = 0; k < cards; ++k) {
        std::vector<size_t> order = std::move(carry);
        carry.clear();
        const size_t migrated_in = order.size();
        order.insert(order.end(), place.orders[k].begin(),
                     place.orders[k].end());
        FpgaSystem &sys = lease.card(k);
        obs::LatencyHistogram latency;
        if (!order.empty()) {
            const bool faulty =
                harden != nullptr && !lease.cardPlan(k).empty();
            CardRun run(ctx, sys, static_cast<int32_t>(k), order,
                        faulty, k + 1 < cards);
            carry = run.drive();
            latency = run.latency();
            if (!carry.empty()) {
                ++out.recovery.quarantinedCards;
                obs::frEmit(obs::FrSeverity::Error,
                            obs::FrCategory::Harden,
                            obs::FrCode::Migrate, sys.now(),
                            static_cast<int32_t>(k + 1),
                            carry.size(), k);
            }
        }
        FleetCardExecStats &row = out.fleet.cardRow(k);
        row.busyCycles = sys.now();
        row.targets = order.size() - carry.size();
        row.shards = place.shards[k];
        row.steals = place.steals[k];
        row.migrations = migrated_in;

        out.makespan = std::max(out.makespan, sys.now());
        foldFleetStats(out.fpga, sys.stats(), k == 0);
        std::vector<UnitTimelineEntry> tl = sys.timeline();
        out.timeline.insert(out.timeline.end(), tl.begin(),
                            tl.end());
        out.targetLatencyCycles.merge(latency);
        out.cardPerf.push_back(cardPerfReport(sys, latency));
        out.perf.merge(out.cardPerf.back(), k);
        sys.attachFaults(nullptr);
    }
    panic_if(!carry.empty(), "fleet left %zu targets unresolved",
             carry.size());

    // Kernel work counters of each target's final attempt only,
    // identical to the fault-free totals even when retries re-ran
    // targets.
    out.fpga.whd = WhdStats{};
    for (const IrComputeResult &r : out.results)
        out.fpga.whd.merge(r.whd);
    out.fpga.totalCycles = out.makespan;
    out.fpgaSeconds = lease.card(0).cyclesToSeconds(out.makespan);
    out.perf.pidSpan = cards;

    for (const FaultInjector &inj : injectors) {
        out.recovery.faultsInjected += inj.totalInjected();
        for (size_t f = 0; f < kNumFaultKinds; ++f) {
            out.recovery.faultsByKind[f] +=
                inj.injected(static_cast<FaultKind>(f));
        }
    }
    if (out.recovery.failedTargets > 0)
        out.status = RunStatus::Failed;
    else if (out.recovery.anyRecovery())
        out.status = RunStatus::Degraded;
    lease.stats.merge(out.fleet);
    return out;
}

} // namespace iracc
