/**
 * @file
 * Reference genome container: an ordered set of named contigs
 * (chromosomes) with random-access slicing, plus a deterministic
 * synthetic-reference generator used in place of GRCh37.
 */

#ifndef IRACC_GENOMICS_REFERENCE_HH
#define IRACC_GENOMICS_REFERENCE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "genomics/base.hh"
#include "util/rng.hh"

namespace iracc {

/** One reference contig (chromosome). */
struct Contig
{
    std::string name;
    BaseSeq seq;

    int64_t length() const { return static_cast<int64_t>(seq.size()); }
};

/**
 * An assembled reference genome.  Contigs are indexed both by
 * position (the contig id used throughout IRACC) and by name.
 */
class ReferenceGenome
{
  public:
    ReferenceGenome() = default;

    /** Append a contig; @return its contig index. */
    int32_t addContig(std::string name, BaseSeq seq);

    size_t numContigs() const { return contigs.size(); }

    const Contig &contig(int32_t idx) const;

    /** @return contig index for a name, or -1 when absent. */
    int32_t findContig(std::string_view name) const;

    /** @return total bases across all contigs. */
    int64_t totalLength() const;

    /**
     * @return the half-open slice [start, end) of a contig.  The
     * range is clamped to the contig bounds.
     */
    BaseSeq slice(int32_t contig_idx, int64_t start, int64_t end) const;

    /** @return the base at (contig, offset). */
    char at(int32_t contig_idx, int64_t offset) const;

    /**
     * Generate a synthetic reference with realistic local structure:
     * i.i.d. bases plus occasional short tandem repeats and
     * homopolymer runs, which is where real INDEL artifacts
     * concentrate.  Deterministic in rng.
     */
    static BaseSeq randomSequence(int64_t length, Rng &rng);

  private:
    std::vector<Contig> contigs;
};

} // namespace iracc

#endif // IRACC_GENOMICS_REFERENCE_HH
