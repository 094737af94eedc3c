/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels: the
 * weighted-Hamming-distance software kernel (the scalar reference,
 * and avx2 where the CPU has it; with and without pruning), the
 * accelerator datapath model at several widths, the Smith-Waterman
 * extension kernel, and target marshalling.  These quantify the per-base-comparison cost that
 * the Section II-C compute-bound argument rests on.
 *
 * With `--json <path>` (or IRACC_BENCH_JSON) the binary also emits
 * an iracc-bench-v1 document with rates for every supported kernel
 * and speedups of avx2 over scalar, measured by a self-timed loop
 * independent of google-benchmark.
 * Key prefixes encode the perf-gate policy (tools/iracc_bench):
 *
 *   n_*        deterministic counts/cycles -- must match exactly
 *   rate_*     wall-clock throughput -- gated with relative slack
 *   speedup_*  same-run ratios vs the scalar kernel -- gated with
 *              relative slack plus an absolute floor
 *   wall_*     recorded for the trajectory, never gated
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "accel/ir_compute.hh"
#include "align/smith_waterman.hh"
#include "obs/bench_report.hh"
#include "realign/marshal.hh"
#include "realign/whd.hh"
#include "realign/whd_simd.hh"
#include "util/rng.hh"
#include "util/timer.hh"

namespace iracc {
namespace {

/** A realistic mid-size target: 4 consensuses, 48 reads. */
IrTargetInput
benchInput(size_t num_cons = 4, size_t num_reads = 48,
           size_t cons_len = 400, size_t read_len = 100)
{
    Rng rng(0xBE9C);
    IrTargetInput input;
    input.windowStart = 100000;
    input.windowEnd = input.windowStart +
                      static_cast<int64_t>(cons_len);
    BaseSeq ref;
    for (size_t b = 0; b < cons_len; ++b)
        ref.push_back(kConcreteBases[rng.below(4)]);
    input.consensuses.push_back(ref);
    for (size_t i = 1; i < num_cons; ++i) {
        BaseSeq alt = ref;
        alt.erase(cons_len / 2, 1 + i);
        input.consensuses.push_back(alt);
    }
    input.events.resize(input.consensuses.size());
    for (size_t j = 0; j < num_reads; ++j) {
        size_t off = rng.below(cons_len - read_len);
        BaseSeq r = ref.substr(off, read_len);
        for (int e = 0; e < 3; ++e)
            r[rng.below(read_len)] = kConcreteBases[rng.below(4)];
        QualSeq q;
        for (size_t b = 0; b < read_len; ++b)
            q.push_back(static_cast<uint8_t>(rng.range(10, 40)));
        input.readBases.push_back(r);
        input.readQuals.push_back(q);
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    return input;
}

void
BM_CalcWhd(benchmark::State &state)
{
    IrTargetInput input = benchInput();
    const BaseSeq &cons = input.consensuses[0];
    const BaseSeq &read = input.readBases[0];
    const QualSeq &quals = input.readQuals[0];
    size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(calcWhd(cons, read, quals, k));
        k = (k + 1) % (cons.size() - read.size());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(read.size()));
}
BENCHMARK(BM_CalcWhd);

/** Read length of the indel-dense workload. */
constexpr size_t kLongReadLen = 150;

void
BM_MinWhd(benchmark::State &state, WhdKernel kernel, bool prune,
          size_t read_len)
{
    IrTargetInput input = benchInput(4, 48, 400, read_len);
    WhdStats stats;
    for (auto _ : state) {
        MinWhdGrid grid = minWhd(input, prune, &stats, kernel);
        benchmark::DoNotOptimize(grid);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(stats.comparisons));
    state.SetLabel(prune ? "pruned" : "full");
}

void
BM_IrComputeWidth(benchmark::State &state, WhdKernel kernel,
                  size_t read_len)
{
    MarshalledTarget target =
        marshalTarget(benchInput(4, 48, 400, read_len));
    const uint32_t width = static_cast<uint32_t>(state.range(0));
    uint64_t cycles = 0;
    for (auto _ : state) {
        IrComputeResult res = irCompute(target, width, true, kernel);
        cycles = res.totalCycles();
        benchmark::DoNotOptimize(res);
    }
    state.counters["model_cycles"] = static_cast<double>(cycles);
}

void
BM_MarshalTarget(benchmark::State &state)
{
    IrTargetInput input = benchInput();
    for (auto _ : state) {
        MarshalledTarget m = marshalTarget(input);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_MarshalTarget);

void
BM_MarshalTargetReuse(benchmark::State &state)
{
    IrTargetInput input = benchInput();
    MarshalledTarget m;
    for (auto _ : state) {
        marshalTargetInto(input, m);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_MarshalTargetReuse);

void
BM_SmithWaterman(benchmark::State &state)
{
    Rng rng(0x5117);
    BaseSeq window;
    for (int b = 0; b < 300; ++b)
        window.push_back(kConcreteBases[rng.below(4)]);
    BaseSeq read = window.substr(100, 100);
    read.erase(40, 3);
    for (auto _ : state) {
        SwAlignment aln = smithWaterman(window, read);
        benchmark::DoNotOptimize(aln);
    }
}
BENCHMARK(BM_SmithWaterman);

/**
 * Register the per-dispatch-variant benchmarks: every shape on the
 * default 100 bp input, and the pruned software sweep plus the
 * width-32 datapath on 150 bp reads ("/150bp").
 */
void
registerDispatchBenchmarks()
{
    for (WhdKernel kernel : supportedWhdKernels()) {
        const std::string kname = whdKernelName(kernel);
        for (bool prune : {false, true}) {
            std::string name = "BM_MinWhd/" + kname + "/" +
                               (prune ? "pruned" : "full");
            benchmark::RegisterBenchmark(
                name.c_str(),
                [kernel, prune](benchmark::State &st) {
                    BM_MinWhd(st, kernel, prune, 100);
                });
        }
        std::string name = "BM_IrComputeWidth/" + kname;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [kernel](benchmark::State &st) {
                BM_IrComputeWidth(st, kernel, 100);
            })
            ->Arg(1)
            ->Arg(8)
            ->Arg(32);
        name = "BM_MinWhd/" + kname + "/pruned/150bp";
        benchmark::RegisterBenchmark(
            name.c_str(), [kernel](benchmark::State &st) {
                BM_MinWhd(st, kernel, true, kLongReadLen);
            });
        name = "BM_IrComputeWidth/" + kname + "/150bp";
        benchmark::RegisterBenchmark(
            name.c_str(), [kernel](benchmark::State &st) {
                BM_IrComputeWidth(st, kernel, kLongReadLen);
            })
            ->Arg(32);
    }
}

// ---- Self-timed iracc-bench-v1 section -------------------------

/**
 * @p work units per second of @p run: run batches until the
 * measurement window is long enough to trust, then take the best of
 * a few repeats (the repeat least disturbed by the machine).
 */
template <typename Fn>
double
measureRate(double work, Fn &&run)
{
    run(); // warm up

    // Calibrate batch size to >= ~30 ms.
    uint64_t batch = 1;
    double secs = 0.0;
    for (;;) {
        Timer t;
        for (uint64_t i = 0; i < batch; ++i)
            run();
        secs = t.seconds();
        if (secs >= 0.03 || batch > (1ull << 24))
            break;
        batch *= 2;
    }
    double best = secs;
    for (int rep = 0; rep < 2; ++rep) {
        Timer t;
        for (uint64_t i = 0; i < batch; ++i)
            run();
        best = std::min(best, t.seconds());
    }
    return work * static_cast<double>(batch) / best;
}

/** comparisons/second of minWhd on @p input. */
double
measureMinWhdRate(WhdKernel kernel, bool prune,
                  const IrTargetInput &input)
{
    WhdStats once;
    minWhd(input, prune, &once, kernel); // count the work
    return measureRate(static_cast<double>(once.comparisons), [&] {
        WhdStats s;
        MinWhdGrid grid = minWhd(input, prune, &s, kernel);
        benchmark::DoNotOptimize(grid);
    });
}

/** comparisons/second of the pruned datapath model at @p width. */
double
measureIrComputeRate(WhdKernel kernel, uint32_t width,
                     const MarshalledTarget &target)
{
    const IrComputeResult once =
        irCompute(target, width, true, kernel); // count the work
    return measureRate(
        static_cast<double>(once.whd.comparisons), [&] {
            IrComputeResult res =
                irCompute(target, width, true, kernel);
            benchmark::DoNotOptimize(res);
        });
}

void
emitBenchJson(const std::string &path)
{
    obs::BenchReport report("kernel_microbench",
                            "Section II-C kernel cost");
    const IrTargetInput input = benchInput();

    // Deterministic work counters and model cycles: any drift is a
    // semantics change, so the gate pins them exactly.
    {
        WhdStats full, pruned;
        minWhd(input, false, &full);
        minWhd(input, true, &pruned);
        report.addValue("n_minwhd_full_comparisons",
                        static_cast<double>(full.comparisons));
        report.addValue("n_minwhd_pruned_comparisons",
                        static_cast<double>(pruned.comparisons));
        report.addValue("n_minwhd_offsets",
                        static_cast<double>(full.offsetsEvaluated));
        report.addValue(
            "n_minwhd_pruned_offsets_pruned",
            static_cast<double>(pruned.offsetsPruned));
        MarshalledTarget target = marshalTarget(input);
        for (uint32_t width : {1u, 8u, 32u}) {
            IrComputeResult res = irCompute(target, width, true);
            report.addValue("n_ircompute_w" +
                                std::to_string(width) + "_cycles",
                            static_cast<double>(res.totalCycles()));
        }
    }

    // Per-variant throughput plus same-run speedups vs scalar
    // (ratios cancel most machine noise, so the gate can hold them
    // to a floor).
    const double scalar_full =
        measureMinWhdRate(WhdKernel::Scalar, false, input);
    const double scalar_pruned =
        measureMinWhdRate(WhdKernel::Scalar, true, input);
    for (WhdKernel kernel : supportedWhdKernels()) {
        const std::string kname = whdKernelName(kernel);
        const double full =
            kernel == WhdKernel::Scalar
                ? scalar_full
                : measureMinWhdRate(kernel, false, input);
        const double pruned =
            kernel == WhdKernel::Scalar
                ? scalar_pruned
                : measureMinWhdRate(kernel, true, input);
        report.addValue("rate_minwhd_full_" + kname + "_cps", full);
        report.addValue("rate_minwhd_pruned_" + kname + "_cps",
                        pruned);
        if (kernel != WhdKernel::Scalar) {
            report.addValue("speedup_unpruned_" + kname,
                            full / scalar_full);
            report.addValue("speedup_pruned_" + kname,
                            pruned / scalar_pruned);
        }
    }

    // The indel-dense read length: the pruned software sweep, and
    // the width-32 datapath whose 150 bp reads end in a 22-base
    // partial chunk.
    const IrTargetInput input150 = benchInput(4, 48, 400, kLongReadLen);
    const MarshalledTarget target150 = marshalTarget(input150);
    {
        WhdStats pruned;
        minWhd(input150, true, &pruned);
        report.addValue("n_minwhd150_pruned_comparisons",
                        static_cast<double>(pruned.comparisons));
        report.addValue(
            "n_minwhd150_pruned_offsets_pruned",
            static_cast<double>(pruned.offsetsPruned));
        const IrComputeResult res = irCompute(target150, 32, true);
        report.addValue("n_ircompute150_w32_cycles",
                        static_cast<double>(res.totalCycles()));
        report.addValue("n_ircompute150_w32_comparisons",
                        static_cast<double>(res.whd.comparisons));
    }
    const double scalar_pruned150 =
        measureMinWhdRate(WhdKernel::Scalar, true, input150);
    const double scalar_w32 =
        measureIrComputeRate(WhdKernel::Scalar, 32, target150);
    for (WhdKernel kernel : supportedWhdKernels()) {
        const std::string kname = whdKernelName(kernel);
        const double pruned =
            kernel == WhdKernel::Scalar
                ? scalar_pruned150
                : measureMinWhdRate(kernel, true, input150);
        const double w32 =
            kernel == WhdKernel::Scalar
                ? scalar_w32
                : measureIrComputeRate(kernel, 32, target150);
        report.addValue("rate_minwhd150_pruned_" + kname + "_cps",
                        pruned);
        report.addValue("rate_ircompute150_w32_" + kname + "_cps",
                        w32);
        if (kernel != WhdKernel::Scalar) {
            report.addValue("speedup_pruned_" + kname + "_150bp",
                            pruned / scalar_pruned150);
            report.addValue("speedup_pruned_w32_" + kname + "_150bp",
                            w32 / scalar_w32);
        }
    }

    report.writeToPath(path);
}

} // namespace
} // namespace iracc

int
main(int argc, char **argv)
{
    // Resolve --json before google-benchmark sees (and rejects)
    // unknown flags, then strip it from argv.
    std::string json_path =
        iracc::obs::BenchReport::jsonPathFromArgs(argc, argv);
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            ++i; // skip the path operand too
            continue;
        }
        args.push_back(argv[i]);
    }
    int args_count = static_cast<int>(args.size());

    iracc::registerDispatchBenchmarks();
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!json_path.empty())
        iracc::emitBenchJson(json_path);
    return 0;
}
