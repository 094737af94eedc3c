#include "genomics/reference.hh"

#include <algorithm>

#include "util/logging.hh"

namespace iracc {

int32_t
ReferenceGenome::addContig(std::string name, BaseSeq seq)
{
    panic_if(!isValidSequence(seq), "contig %s has invalid bases",
             name.c_str());
    contigs.push_back({std::move(name), std::move(seq)});
    return static_cast<int32_t>(contigs.size()) - 1;
}

const Contig &
ReferenceGenome::contig(int32_t idx) const
{
    panic_if(idx < 0 || static_cast<size_t>(idx) >= contigs.size(),
             "contig index %d out of range (%zu contigs)", idx,
             contigs.size());
    return contigs[static_cast<size_t>(idx)];
}

int32_t
ReferenceGenome::findContig(std::string_view name) const
{
    for (size_t i = 0; i < contigs.size(); ++i)
        if (contigs[i].name == name)
            return static_cast<int32_t>(i);
    return -1;
}

int64_t
ReferenceGenome::totalLength() const
{
    int64_t total = 0;
    for (const auto &c : contigs)
        total += c.length();
    return total;
}

BaseSeq
ReferenceGenome::slice(int32_t contig_idx, int64_t start,
                       int64_t end) const
{
    const Contig &c = contig(contig_idx);
    start = std::max<int64_t>(0, start);
    end = std::min<int64_t>(c.length(), end);
    if (start >= end)
        return BaseSeq();
    return c.seq.substr(static_cast<size_t>(start),
                        static_cast<size_t>(end - start));
}

char
ReferenceGenome::at(int32_t contig_idx, int64_t offset) const
{
    const Contig &c = contig(contig_idx);
    panic_if(offset < 0 || offset >= c.length(),
             "offset %lld out of range on contig %s (len %lld)",
             static_cast<long long>(offset), c.name.c_str(),
             static_cast<long long>(c.length()));
    return c.seq[static_cast<size_t>(offset)];
}

BaseSeq
ReferenceGenome::randomSequence(int64_t length, Rng &rng)
{
    BaseSeq seq;
    seq.reserve(static_cast<size_t>(length));
    while (static_cast<int64_t>(seq.size()) < length) {
        double r = rng.uniform();
        if (r < 0.02 && !seq.empty()) {
            // Homopolymer run: extend the previous base 3-8 times.
            char prev = seq.back();
            int64_t run = rng.range(3, 8);
            for (int64_t i = 0;
                 i < run && static_cast<int64_t>(seq.size()) < length;
                 ++i) {
                seq.push_back(prev);
            }
        } else if (r < 0.03 && seq.size() >= 4) {
            // Short tandem repeat: copy the last 2-4 bases 2-4 times.
            int64_t unit = rng.range(2, 4);
            int64_t reps = rng.range(2, 4);
            size_t from = seq.size() - static_cast<size_t>(unit);
            for (int64_t rep = 0; rep < reps; ++rep) {
                for (int64_t i = 0; i < unit; ++i) {
                    if (static_cast<int64_t>(seq.size()) >= length)
                        break;
                    seq.push_back(seq[from + static_cast<size_t>(i)]);
                }
            }
        } else {
            seq.push_back(kConcreteBases[rng.below(4)]);
        }
    }
    return seq;
}

} // namespace iracc
