/**
 * @file
 * Perf-regression gate over iracc-bench-v1 reports.
 *
 * A baseline is a committed, verbatim bench JSON from a known-good
 * run.  The gate re-runs the bench N times, takes the per-key
 * median of the fresh runs, and compares each key against the
 * baseline under a rule chosen by key prefix:
 *
 *   Exact        deterministic counts/cycles -- any drift is a
 *                semantics change, not noise, so it fails outright
 *   HigherBetter throughput/speedup -- fails when the median drops
 *                below baseline*(1-relSlack), or below an absolute
 *                floor when one is set
 *   LowerBetter  wall-clock seconds -- fails when the median rises
 *                above baseline*(1+relSlack)
 *   Informational recorded for the trajectory, never fails
 *
 * Keys present in the baseline but missing from a fresh run fail
 * (a silently dropped metric hides regressions); new keys not in
 * the baseline pass with a note (refresh the baseline to adopt
 * them).  tools/iracc_bench drives this against the committed
 * baselines in bench/baselines/.
 */

#ifndef IRACC_OBS_BENCH_GATE_HH
#define IRACC_OBS_BENCH_GATE_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace iracc {
namespace obs {

enum class GateClass {
    Exact,
    HigherBetter,
    LowerBetter,
    Informational,
};

/** One gating policy, applied to every key starting with prefix. */
struct GateRule
{
    /** Key prefix this rule matches ("" matches everything). */
    std::string prefix;
    GateClass cls = GateClass::Informational;
    /** Relative slack for HigherBetter / LowerBetter. */
    double relSlack = 0.0;
    /** HigherBetter only: absolute minimum (0 = no floor). */
    double floor = 0.0;
    /**
     * True when the metric is comparable across machines (counts,
     * same-run ratios).  Absolute wall-clock rates are not: a
     * baseline recorded on one box says nothing about another, so
     * demoteNonPortable() turns those rules informational for
     * cross-machine (CI) checks.
     */
    bool portable = true;
};

/** Verdict for one key. */
struct GateFinding
{
    std::string key;
    bool ok = true;
    /** False for informational / unmatched / new keys. */
    bool gated = false;
    double baseline = 0.0;
    double current = 0.0;
    std::string detail;
};

struct GateResult
{
    /** True when every gated key passed. */
    bool ok = true;
    std::vector<GateFinding> findings;

    size_t gatedCount() const;
    size_t failedCount() const;
};

/** Printable name of a gate class. */
const char *gateClassName(GateClass cls);

/**
 * Rules for kernel_microbench reports (key conventions documented
 * in bench/kernel_microbench.cc).  More specific prefixes first;
 * matching picks the first rule whose prefix applies.
 */
std::vector<GateRule> kernelBenchGateRules();

/** Rules for fig9_speedup reports. */
std::vector<GateRule> fig9GateRules();

/** Rules for fig7_scheduling reports (all-deterministic cycle
 *  model; the 2-card fleet speedup carries the acceptance floor). */
std::vector<GateRule> fig7GateRules();

/** Rules for fig8_data_parallel reports (deterministic datapath
 *  cycle counts at a pinned IRACC_SCALE). */
std::vector<GateRule> fig8GateRules();

/** Rules for ablation_pruning reports: exact comparison/cycle
 *  counters per chromosome; the mean eliminated fraction carries
 *  the paper's >50 % pruning claim as an absolute floor. */
std::vector<GateRule> ablationPruningGateRules();

/** Rules for ablation_memsys reports: every sweep point is a
 *  modeled (cycle-exact) runtime, so the default is Exact; the
 *  250 MHz speedup keeps a floor because frequency must keep
 *  scaling performance in the compute-bound model. */
std::vector<GateRule> ablationMemsysGateRules();

/** Multiply every rule's relSlack by @p factor (gate tightening
 *  or loosening from the command line). */
void scaleGateSlack(std::vector<GateRule> &rules, double factor);

/** Turn rules whose metrics do not transfer across machines into
 *  informational ones (tools/iracc_bench --portable, used by CI
 *  against baselines recorded elsewhere). */
void demoteNonPortable(std::vector<GateRule> &rules);

/**
 * Parse an iracc-bench-v1 document and extract its flat values
 * map.  @return false (with *error set) on malformed JSON or a
 * schema/bench mismatch; @p expect_bench "" skips the name check.
 */
bool parseBenchValues(const std::string &json_text,
                      const std::string &expect_bench,
                      std::map<std::string, double> *values,
                      std::string *error);

/** Median of @p xs (averages the middle pair for even sizes). */
double medianOf(std::vector<double> xs);

/**
 * Per-key medianOf over @p runs (one values-map per bench
 * repetition), for the keys every run reports.
 */
std::map<std::string, double> medianValues(
    const std::vector<std::map<std::string, double>> &runs);

/**
 * Gate @p runs (one values-map per fresh bench repetition) against
 * @p baseline under @p rules.  Findings come back ordered: failed
 * gated keys first, then passing gated keys, then ungated notes.
 */
GateResult checkBenchGate(
    const std::map<std::string, double> &baseline,
    const std::vector<std::map<std::string, double>> &runs,
    const std::vector<GateRule> &rules);

} // namespace obs
} // namespace iracc

#endif // IRACC_OBS_BENCH_GATE_HH
