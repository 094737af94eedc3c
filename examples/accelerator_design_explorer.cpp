/**
 * @file
 * Accelerator design-space explorer -- the microarchitectural
 * trade study of Sections III and IV as an interactive tool.
 *
 * Sweeps the IR accelerator design space (unit count x datapath
 * width x pruning x scheduling) on a fixed workload, reporting for
 * each point the simulated runtime, unit utilization, and whether
 * the configuration fits the VU9P's block RAM at 125 MHz.  The
 * paper's deployed point (32 units, 32-wide, pruning, async) is
 * marked.
 *
 *   $ ./build/examples/accelerator_design_explorer [chromosome=21]
 */

#include <cstdio>
#include <cstdlib>

#include "accel/resource_model.hh"
#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    int chromosome = argc > 1 ? std::atoi(argv[1]) : 21;
    fatal_if(chromosome < 1 || chromosome > kNumAutosomes,
             "chromosome must be 1..22");

    WorkloadParams params;
    params.chromosomes = {chromosome};
    params.scaleDivisor = 1000;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosome(chromosome);

    std::printf("Design-space exploration on %s (%lld bp, %zu "
                "reads)\n\n",
                autosomeName(chromosome).c_str(),
                static_cast<long long>(
                    wl.reference.contig(chr.contig).length()),
                chr.reads.size());

    Table table({"Units", "Width", "Prune", "Sched", "BRAM",
                 "Fits", "Runtime(ms)", "Util", "Note"});

    for (uint32_t units : {4u, 8u, 16u, 32u}) {
        for (uint32_t width : {1u, 32u}) {
            for (bool prune : {false, true}) {
                for (auto sched :
                     {SchedulePolicy::SynchronousParallel,
                      SchedulePolicy::AsynchronousParallel}) {
                    // Keep the sweep readable: only show sync for
                    // the paper-relevant scalar design points.
                    if (sched ==
                            SchedulePolicy::SynchronousParallel &&
                        (width != 1 || !prune)) {
                        continue;
                    }
                    AccelConfig cfg;
                    cfg.numUnits = units;
                    cfg.dataParallelWidth = width;
                    cfg.pruning = prune;

                    ResourceEstimate res = estimateResources(cfg);
                    std::vector<Read> reads = chr.reads;
                    BackendRunResult run =
                        makeAcceleratedBackend("explore",
                                               "design point", cfg,
                                               sched)
                            ->realignContig(wl.reference,
                                            chr.contig, reads);

                    bool is_paper = units == 32 && width == 32 &&
                        prune &&
                        sched ==
                            SchedulePolicy::AsynchronousParallel;
                    table.addRow(
                        {std::to_string(units),
                         std::to_string(width),
                         prune ? "y" : "n",
                         sched == SchedulePolicy::
                                      AsynchronousParallel
                             ? "async"
                             : "sync",
                         Table::pct(res.bramUtilization, 0),
                         res.fits ? "y" : "n",
                         Table::num(run.fpgaSeconds * 1e3, 2),
                         Table::pct(run.unitUtilization, 0),
                         is_paper ? "<- paper design" : ""});
                }
            }
        }
    }
    table.print();

    std::printf("\nReading the table: block RAM (not logic) caps "
                "the unit count at 32; pruning\nand the 32-wide "
                "datapath are nearly free in resources but "
                "dominate runtime;\nasync scheduling recovers the "
                "utilization that target-size variance takes\n"
                "from the synchronous scheme (Section IV).\n");
    return 0;
}
