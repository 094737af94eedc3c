/**
 * @file
 * Memory-system ablation (Sections III-B and IV): the paper chose
 * a 256-bit TileLink unit interface after sweeping widths, uses 1
 * of the 4 available DDR4 channels ("even the largest target does
 * not occupy more than 16 GB", trading controller area for
 * compute units), and runs at the 125 MHz clock recipe after
 * finding the 250 MHz recipe unroutable.  This bench sweeps those
 * choices on the simulated system.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "sim/perf_monitor.hh"
#include "util/table.hh"

using namespace iracc;

namespace {

struct ConfigResult
{
    double seconds = 0.0;
    PerfReport perf;
};

ConfigResult
runConfig(const GenomeWorkload &wl, const ChromosomeWorkload &chr,
          AccelConfig cfg)
{
    std::vector<Read> reads = chr.reads;
    cfg.perfCounters = true;
    RealignSession session(
        makeAcceleratedBackend("sweep", "memsys sweep point", cfg,
                               SchedulePolicy::AsynchronousParallel));
    RealignJobResult job =
        session.runContig(wl.reference, chr.contig, reads);
    return ConfigResult{job.fpgaSeconds, std::move(job.perf)};
}

/** Mean occupancy across all DDR channels of one run. */
double
ddrOccupancy(const PerfReport &rep)
{
    double sum = 0.0;
    size_t n = 0;
    for (const auto &ch : rep.channels) {
        if (ch.name.rfind("ddr", 0) != 0)
            continue;
        sum += rep.channelOccupancy(ch.name);
        ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("ablation_memsys",
                  "Sections III-B/IV -- interconnect width, DDR "
                  "channels, clock recipe");
    obs::BenchReport report = bench::makeReport(
        "ablation_memsys",
        "Sections III-B/IV -- memory-system ablation");

    WorkloadParams params = bench::standardWorkload();
    params.chromosomes = {20};
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosomes[0];

    AccelConfig base = AccelConfig::paperOptimized();
    ConfigResult base_res = runConfig(wl, chr, base);
    double base_time = base_res.seconds;

    std::printf("TileLink unit-interface width sweep (paper picked "
                "256-bit):\n");
    Table widths({"Width(bits)", "Bytes/cycle", "Runtime(s)",
                  "vs 256-bit", "DDR busy", "DDR MB"});
    for (uint64_t bytes : {8ull, 16ull, 32ull, 64ull}) {
        AccelConfig cfg = base;
        cfg.unitLinkBytesPerCycle = bytes;
        ConfigResult r = runConfig(wl, chr, cfg);
        widths.addRow({std::to_string(bytes * 8),
                       std::to_string(bytes),
                       Table::num(r.seconds, 4),
                       Table::speedup(r.seconds / base_time, 2),
                       Table::pct(ddrOccupancy(r.perf)),
                       Table::num(static_cast<double>(
                                      r.perf.channelBytes("ddr")) /
                                      1e6,
                                  1)});
        // Modeled seconds are cycles / clock -- deterministic, so
        // the perf gate can hold every sweep point exactly.
        report.addValue("width" + std::to_string(bytes * 8) +
                            ".fpgaSeconds",
                        r.seconds);
    }
    widths.print();

    std::printf("\nDDR channel sweep (paper instantiates 1 of 4 to "
                "trade controller area for units):\n");
    Table ddr({"Channels", "Runtime(s)", "vs 1 channel", "DDR busy",
               "DDR MB"});
    double one_chan = base_time;
    for (uint32_t ch : {1u, 2u, 4u}) {
        AccelConfig cfg = base;
        cfg.ddrChannels = ch;
        ConfigResult r = runConfig(wl, chr, cfg);
        ddr.addRow({std::to_string(ch), Table::num(r.seconds, 4),
                    Table::speedup(one_chan / r.seconds, 2),
                    Table::pct(ddrOccupancy(r.perf)),
                    Table::num(static_cast<double>(
                                   r.perf.channelBytes("ddr")) /
                                   1e6,
                               1)});
        report.addValue("ddr" + std::to_string(ch) +
                            ".fpgaSeconds",
                        r.seconds);
    }
    ddr.print();

    std::printf("\nClock recipe (the 250 MHz recipe failed timing "
                "on the real device; the model\nshows what it "
                "would have bought):\n");
    Table clock({"Clock(MHz)", "Runtime(s)", "Speedup"});
    for (double mhz : {125.0, 250.0}) {
        AccelConfig cfg = base;
        cfg.clockMhz = mhz;
        ConfigResult r = runConfig(wl, chr, cfg);
        clock.addRow({Table::num(mhz, 0), Table::num(r.seconds, 4),
                      Table::speedup(base_time / r.seconds, 2)});
        report.addValue("clock" + Table::num(mhz, 0) +
                            ".fpgaSeconds",
                        r.seconds);
        if (mhz > 125.0)
            report.addValue("clock" + Table::num(mhz, 0) +
                                ".speedup",
                            base_time / r.seconds);
    }
    clock.print();

    std::printf("\nCounter cross-check at the base point: DDR "
                "occupancy %s over %s MB moved, mean unit "
                "utilization %s -- the memory system is nowhere "
                "near saturation.\n",
                Table::pct(ddrOccupancy(base_res.perf)).c_str(),
                Table::num(static_cast<double>(
                               base_res.perf.channelBytes("ddr")) /
                               1e6,
                           1)
                    .c_str(),
                Table::pct(base_res.perf.meanUnitUtilization())
                    .c_str());

    std::printf("\nConclusion (matches the paper): the system is "
                "compute-bound -- interconnect\nwidth and DDR "
                "channel count barely matter, which is why 1 "
                "channel and a\nmodest 256-bit TileLink sufficed; "
                "frequency scales performance directly,\nbut "
                "125 MHz was the routable recipe.\n");

    report.addValue("baseFpgaSeconds", base_time);
    report.addValue("baseDdrOccupancy",
                    ddrOccupancy(base_res.perf));
    report.addValue("baseUnitUtilization",
                    base_res.perf.meanUnitUtilization());
    report.addTable("interconnectWidths", widths);
    report.addTable("ddrChannels", ddr);
    report.addTable("clockRecipes", clock);
    bench::finishReport(report, argc, argv);
    return 0;
}
