#include "refine/pipeline.hh"

#include "obs/obs.hh"
#include "refine/bqsr.hh"
#include "refine/duplicate_marker.hh"
#include "refine/sort.hh"

namespace iracc {

namespace {

/**
 * Run one refinement stage under one span and return its
 * wall-clock seconds.  When instrumented, the trace span and the
 * histogram sample are that same measurement, so printed
 * breakdowns and exported metrics agree.
 */
template <typename Fn>
double
timedStage(obs::Observability *obsv, const char *span_name,
           const char *histogram, Fn &&fn)
{
    obs::ScopedSpan span(obsv, span_name, "refine", histogram);
    fn();
    return span.close();
}

} // namespace

RefineResult
runRefinementPipeline(const ReferenceGenome &ref,
                      std::vector<Read> &reads,
                      const GenomeRealignStage &realigner,
                      const std::vector<Variant> &known_sites,
                      obs::Observability *obsv)
{
    RefineResult out;

    out.times.sortSeconds =
        timedStage(obsv, "sort", "refine.stage.sort.seconds",
                   [&] { coordinateSort(reads); });

    out.times.dupMarkSeconds = timedStage(
        obsv, "dupmark", "refine.stage.dupmark.seconds",
        [&] { out.duplicatesMarked = markDuplicates(reads); });

    // The genome-level IR stage realigns every contig (possibly in
    // parallel); the reorder pass restores coordinate order just
    // like the per-contig flow below.
    out.times.realignSeconds = timedStage(
        obsv, "realign", "refine.stage.realign.seconds", [&] {
            out.realign = realigner(ref, reads);
            coordinateSort(reads);
        });

    out.times.bqsrSeconds =
        timedStage(obsv, "bqsr", "refine.stage.bqsr.seconds", [&] {
            BqsrTable table;
            table.observe(ref, reads, known_sites);
            table.recalibrate(reads);
        });

    if (obsv && obsv->metrics) {
        obsv->metrics->counter("refine.duplicates_marked")
            .add(out.duplicatesMarked);
    }
    return out;
}

RefineResult
runRefinementPipeline(const ReferenceGenome &ref, int32_t contig,
                      std::vector<Read> &reads,
                      const RealignStage &realigner,
                      const std::vector<Variant> &known_sites,
                      obs::Observability *obsv)
{
    RefineResult out;

    // Stage 1: coordinate sort.
    out.times.sortSeconds =
        timedStage(obsv, "sort", "refine.stage.sort.seconds",
                   [&] { coordinateSort(reads); });

    // Stage 2: duplicate marking.
    out.times.dupMarkSeconds = timedStage(
        obsv, "dupmark", "refine.stage.dupmark.seconds",
        [&] { out.duplicatesMarked = markDuplicates(reads); });

    // Stage 3: INDEL realignment (the accelerated stage).  Like
    // GATK3's IndelRealigner, the stage emits coordinate-sorted
    // output: realigned start positions move within their target
    // window, so a reorder pass restores the invariant downstream
    // stages assume.
    out.times.realignSeconds = timedStage(
        obsv, "realign", "refine.stage.realign.seconds", [&] {
            out.realign = realigner(ref, contig, reads);
            coordinateSort(reads);
        });

    // Stage 4: base quality score recalibration.
    out.times.bqsrSeconds =
        timedStage(obsv, "bqsr", "refine.stage.bqsr.seconds", [&] {
            BqsrTable table;
            table.observe(ref, reads, known_sites);
            table.recalibrate(reads);
        });

    if (obsv && obsv->metrics) {
        obsv->metrics->counter("refine.duplicates_marked")
            .add(out.duplicatesMarked);
    }
    return out;
}

} // namespace iracc
