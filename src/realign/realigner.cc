#include "realign/realigner.hh"

#include <algorithm>

#include "realign/limits.hh"
#include "util/logging.hh"

namespace iracc {

void
mapOffsetToAlignment(const IrTargetInput &input, uint32_t cons_idx,
                     uint32_t offset, uint32_t read_len,
                     int64_t &new_pos, Cigar &new_cigar)
{
    const int64_t w = input.windowStart;
    const int64_t k = offset;
    const int64_t n = read_len;

    if (cons_idx == 0) {
        new_pos = w + k;
        new_cigar = Cigar::simpleMatch(read_len);
        return;
    }

    panic_if(cons_idx >= input.events.size(),
             "consensus index %u out of range", cons_idx);
    const IndelEvent &ev = input.events[cons_idx];
    // Window-relative position of the anchor base.
    const int64_t a = ev.anchor - w;

    if (ev.isInsertion) {
        const int64_t len =
            static_cast<int64_t>(ev.insertedBases.size());
        // Inserted bases occupy consensus positions [a+1, a+len].
        if (k + n - 1 <= a) {
            // Entirely before the insertion.
            new_pos = w + k;
            new_cigar = Cigar::simpleMatch(read_len);
        } else if (k > a + len) {
            // Entirely after: consensus runs len long vs reference.
            new_pos = w + k - len;
            new_cigar = Cigar::simpleMatch(read_len);
        } else if (k > a) {
            // Starts inside the inserted bases: soft-clip the
            // leading inserted bases, anchor after the insertion.
            int64_t clip = std::min(a + len - k + 1, n);
            panic_if(clip <= 0, "bad insertion clip");
            new_pos = w + a + 1;
            std::vector<CigarElem> elems = {
                {static_cast<uint32_t>(clip), CigarOp::SoftClip}};
            // A read that fits entirely inside the insertion ends
            // up fully clipped (anchored after the insertion).
            if (clip < n)
                elems.push_back({static_cast<uint32_t>(n - clip),
                                 CigarOp::Match});
            new_cigar = Cigar(std::move(elems));
        } else {
            // Spans the insertion point.
            int64_t pre = a - k + 1;
            int64_t ins = std::min(len, k + n - 1 - a);
            int64_t post = n - pre - ins;
            panic_if(pre <= 0 || ins <= 0 || post < 0,
                     "bad insertion span decomposition");
            std::vector<CigarElem> elems = {
                {static_cast<uint32_t>(pre), CigarOp::Match},
                {static_cast<uint32_t>(ins), CigarOp::Insert}};
            if (post > 0)
                elems.push_back({static_cast<uint32_t>(post),
                                 CigarOp::Match});
            new_pos = w + k;
            new_cigar = Cigar(std::move(elems));
        }
    } else {
        const int64_t len = ev.delLength;
        // Consensus position a is the last base before the deleted
        // reference run [a+1, a+len].
        if (k + n - 1 <= a) {
            new_pos = w + k;
            new_cigar = Cigar::simpleMatch(read_len);
        } else if (k > a) {
            // Entirely after the deletion: reference is len longer.
            new_pos = w + k + len;
            new_cigar = Cigar::simpleMatch(read_len);
        } else {
            // Spans the deletion point.
            int64_t pre = a - k + 1;
            int64_t post = n - pre;
            panic_if(pre <= 0 || post <= 0,
                     "bad deletion span decomposition");
            new_pos = w + k;
            new_cigar = Cigar({
                {static_cast<uint32_t>(pre), CigarOp::Match},
                {static_cast<uint32_t>(len), CigarOp::Delete},
                {static_cast<uint32_t>(post), CigarOp::Match}});
        }
    }
}

uint32_t
applyDecision(const IrTargetInput &input,
              const ConsensusDecision &decision,
              std::vector<Read> &reads)
{
    uint32_t updated = 0;
    for (size_t j = 0; j < input.readIndices.size(); ++j) {
        if (!decision.realign[j])
            continue;
        Read &read = reads[input.readIndices[j]];
        int64_t new_pos = 0;
        Cigar new_cigar;
        mapOffsetToAlignment(input, decision.bestConsensus,
                             decision.newOffset[j],
                             static_cast<uint32_t>(read.length()),
                             new_pos, new_cigar);
        read.pos = new_pos;
        read.cigar = new_cigar;
        read.assertValid();
        ++updated;
    }
    return updated;
}

} // namespace iracc
