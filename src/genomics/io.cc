#include "genomics/io.hh"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>

#include "genomics/stream_io.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/**
 * The record writers render into one reusable string and hand it
 * to the ostream in chunks of about this size.
 */
constexpr size_t kWriteChunkBytes = 64u << 10;

/** Hand @p buf to @p os and empty it. */
void
drain(std::ostream &os, std::string &buf)
{
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

void
appendInt(std::string &buf, int64_t v)
{
    char digits[24];
    const auto res = std::to_chars(digits, digits + sizeof(digits), v);
    buf.append(digits, res.ptr);
}

/** Append the Sanger FASTQ encoding of @p quals. */
void
appendQuals(std::string &buf, const QualSeq &quals)
{
    const size_t at = buf.size();
    buf.resize(at + quals.size());
    char *out = buf.data() + at;
    // One max over the scores instead of a check per score, so the
    // loop vectorizes.
    uint8_t worst = 0;
    for (size_t i = 0; i < quals.size(); ++i) {
        worst = std::max(worst, quals[i]);
        out[i] = static_cast<char>(quals[i] + 33);
    }
    panic_if(worst > kMaxPhred, "Phred score %u exceeds max %u", worst,
             kMaxPhred);
}

/** Append the SAM text form of @p cigar ("*" when empty). */
void
appendCigar(std::string &buf, const Cigar &cigar)
{
    if (cigar.empty()) {
        buf += '*';
        return;
    }
    for (const CigarElem &e : cigar.elements()) {
        appendInt(buf, e.length);
        buf += cigarOpChar(e.op);
    }
}

} // namespace

void
writeFasta(std::ostream &os, const ReferenceGenome &ref)
{
    std::string buf;
    for (size_t i = 0; i < ref.numContigs(); ++i) {
        const Contig &c = ref.contig(static_cast<int32_t>(i));
        buf += '>';
        buf += c.name;
        buf += '\n';
        for (size_t off = 0; off < c.seq.size(); off += 60) {
            buf.append(c.seq, off, 60);
            buf += '\n';
            if (buf.size() >= kWriteChunkBytes)
                drain(os, buf);
        }
    }
    drain(os, buf);
}

ReferenceGenome
readFasta(std::istream &is)
{
    ReferenceGenome ref;
    std::string line, name, seq;
    auto flush = [&] {
        if (!name.empty())
            ref.addContig(name, seq);
        name.clear();
        seq.clear();
    };
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (line[0] == '>') {
            flush();
            // Contig name is the first whitespace-delimited token.
            size_t end = line.find_first_of(" \t", 1);
            name = line.substr(1, end == std::string::npos
                                  ? std::string::npos : end - 1);
            fatal_if(name.empty(), "FASTA record with empty name");
        } else {
            fatal_if(name.empty(),
                     "FASTA sequence data before any header");
            seq += line;
        }
    }
    flush();
    return ref;
}

void
writeFastq(std::ostream &os, const std::vector<Read> &reads)
{
    std::string buf;
    for (const Read &r : reads) {
        buf += '@';
        buf += r.name;
        buf += '\n';
        buf += r.bases;
        buf += "\n+\n";
        appendQuals(buf, r.quals);
        buf += '\n';
        if (buf.size() >= kWriteChunkBytes)
            drain(os, buf);
    }
    drain(os, buf);
}

std::vector<Read>
readFastq(std::istream &is)
{
    // Batch convenience over the validating streaming reader, so
    // legacy callers get the same strict rejection (with the
    // machine-readable code in the message) instead of the old
    // trusting parse.
    std::vector<Read> reads;
    FastqStreamReader reader(is);
    Read r;
    ParseError err;
    StreamStatus st;
    while ((st = reader.next(&r, &err)) == StreamStatus::Record)
        reads.push_back(std::move(r));
    fatal_if(st == StreamStatus::Error, "FASTQ parse failed: %s",
             err.describe().c_str());
    return reads;
}

void
writeSamLite(std::ostream &os, const ReferenceGenome &ref,
             const std::vector<Read> &reads)
{
    std::string buf;
    for (const Read &r : reads) {
        int flags = (r.reverse ? 0x10 : 0) |
                    (r.duplicate ? 0x400 : 0) |
                    (r.paired ? 0x1 : 0) |
                    (r.paired && r.firstOfPair ? 0x40 : 0) |
                    (r.paired && !r.firstOfPair ? 0x80 : 0);
        buf += r.name;
        buf += '\t';
        buf += ref.contig(r.contig).name;
        buf += '\t';
        appendInt(buf, r.pos + 1);
        buf += '\t';
        appendInt(buf, r.mapq);
        buf += '\t';
        appendCigar(buf, r.cigar);
        buf += '\t';
        appendInt(buf, flags);
        buf += '\t';
        buf += r.bases;
        buf += '\t';
        appendQuals(buf, r.quals);
        buf += '\n';
        if (buf.size() >= kWriteChunkBytes)
            drain(os, buf);
    }
    drain(os, buf);
}

std::vector<Read>
readSamLite(std::istream &is, const ReferenceGenome &ref)
{
    // The old implementation parsed with istringstream >>, which
    // accepts partial tokens ("12x" -> 12) and lets malformed
    // numerics cascade into panics deeper in the pipeline.  Parse
    // through the validating streaming reader instead.
    std::vector<Read> reads;
    SamLiteStreamReader reader(is, ref);
    Read r;
    ParseError err;
    StreamStatus st;
    while ((st = reader.next(&r, &err)) == StreamStatus::Record)
        reads.push_back(std::move(r));
    fatal_if(st == StreamStatus::Error, "SAM-lite parse failed: %s",
             err.describe().c_str());
    return reads;
}

} // namespace iracc
