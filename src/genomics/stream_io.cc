#include "genomics/stream_io.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>

#include "genomics/base.hh"
#include "util/logging.hh"

namespace iracc {

const char *
streamErrorName(StreamErrorCode code)
{
    switch (code) {
      case StreamErrorCode::None:            return "ok";
      case StreamErrorCode::OversizedLine:   return "oversized-line";
      case StreamErrorCode::TruncatedRecord: return "truncated-record";
      case StreamErrorCode::MalformedRecord: return "malformed-record";
      case StreamErrorCode::WrongFieldCount: return "wrong-field-count";
      case StreamErrorCode::MalformedField:  return "malformed-field";
      case StreamErrorCode::FieldOutOfRange: return "field-out-of-range";
      case StreamErrorCode::MalformedCigar:  return "malformed-cigar";
      case StreamErrorCode::CigarMismatch:   return "cigar-mismatch";
      case StreamErrorCode::InvalidBase:     return "invalid-base";
      case StreamErrorCode::InvalidQuality:  return "invalid-quality";
      case StreamErrorCode::LengthMismatch:  return "length-mismatch";
      case StreamErrorCode::UnknownContig:   return "unknown-contig";
      case StreamErrorCode::PositionOutOfRange:
        return "position-out-of-range";
      case StreamErrorCode::UngroupedInput:  return "ungrouped-input";
    }
    panic("invalid StreamErrorCode %d", static_cast<int>(code));
}

std::string
ParseError::describe() const
{
    std::string out = streamErrorName(code);
    if (line > 0) {
        out += ": line ";
        out += std::to_string(line);
    }
    if (!message.empty()) {
        out += ": ";
        out += message;
    }
    return out;
}

namespace {

void
setError(ParseError *err, StreamErrorCode code, uint64_t line,
         std::string message)
{
    if (!err)
        return;
    err->code = code;
    err->line = line;
    err->message = std::move(message);
}

/**
 * Concatenate string-like parts.  Error messages are built with
 * += rather than an operator+ chain, which GCC 12 misreports under
 * -Wrestrict once a std::string_view is converted in the middle.
 */
template <typename... Parts>
std::string
concat(const Parts &...parts)
{
    std::string out;
    ((out += parts), ...);
    return out;
}

/** @return the first @p c in [from, to), or @p to. */
const char *
findByte(const char *from, const char *to, char c)
{
    const void *hit =
        std::memchr(from, c, static_cast<size_t>(to - from));
    return hit ? static_cast<const char *>(hit) : to;
}

/** Whole-token base-10 integer: no '+', no radix prefix. */
bool
parseDecimal(std::string_view text, int64_t *out)
{
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, *out);
    return ec == std::errc() && ptr == last;
}

} // namespace

LineScanner::LineScanner(std::istream &is, StreamLimits limits)
    : in(is), lim(limits), buf(kBlockBytes)
{
}

void
LineScanner::refill()
{
    // Slide the unfinished line to the front, so the buffer holds
    // that line plus at most one new block.
    if (begin > 0) {
        std::memmove(buf.data(), buf.data() + begin, end - begin);
        end -= begin;
        scanned -= begin;
        begin = 0;
    }
    // A buffer full of one line shorter than the limit: grow toward
    // maxLineBytes + 1, the most it takes to prove a line too long.
    if (end == buf.size())
        buf.resize(std::min(2 * buf.size(), lim.maxLineBytes) + 1);
    in.read(buf.data() + end, static_cast<std::streamsize>(
                                  std::min(kBlockBytes,
                                           buf.size() - end)));
    end += static_cast<size_t>(in.gcount());
    if (!in)
        eof = true;
}

bool
LineScanner::next(std::string_view *line, ParseError *err)
{
    for (;;) {
        if (oversized) {
            setError(err, StreamErrorCode::OversizedLine, lineno,
                     concat("line exceeds ",
                            std::to_string(lim.maxLineBytes),
                            " bytes"));
            return false;
        }
        const char *data = buf.data();
        const size_t stop = static_cast<size_t>(
            findByte(data + scanned, data + end, '\n') - data);
        const bool haveNewline = stop < end;
        if (stop - begin > lim.maxLineBytes) {
            ++lineno;
            oversized = true;
            continue;
        }
        if (!haveNewline && !eof) {
            scanned = end;
            refill();
            continue;
        }
        if (!haveNewline && begin == end)
            return false;
        // A line ends at the newline, or at EOF for a final line
        // without one.
        ++lineno;
        size_t len = stop - begin;
        if (len > 0 && data[stop - 1] == '\r')
            --len;
        *line = std::string_view(data + begin, len);
        begin = scanned = haveNewline ? stop + 1 : stop;
        return true;
    }
}

FastqStreamReader::FastqStreamReader(std::istream &is,
                                     StreamLimits limits)
    : scanner(is, limits)
{
}

StreamStatus
FastqStreamReader::next(Read *out, ParseError *err)
{
    std::string_view line;
    ParseError scanErr;
    // Tolerate blank lines between records (batch-reader parity).
    do {
        if (!scanner.next(&line, &scanErr)) {
            if (!scanErr.ok()) {
                if (err)
                    *err = scanErr;
                return StreamStatus::Error;
            }
            return StreamStatus::End;
        }
    } while (line.empty());

    if (line[0] != '@' || line.size() < 2) {
        setError(err, StreamErrorCode::MalformedRecord,
                 scanner.lineNumber(),
                 "expected '@name' FASTQ header");
        return StreamStatus::Error;
    }

    // Each view dies at the next pull, so keep what the checks
    // below need before pulling on.
    const std::string header(line);
    auto pull = [&] {
        if (scanner.next(&line, &scanErr))
            return true;
        if (!scanErr.ok()) {
            if (err)
                *err = scanErr;
        } else {
            setError(err, StreamErrorCode::TruncatedRecord,
                     scanner.lineNumber(),
                     concat("EOF inside FASTQ record '", header, "'"));
        }
        return false;
    };
    if (!pull())
        return StreamStatus::Error;
    std::string bases(line);
    if (!pull())
        return StreamStatus::Error;
    const bool plusOk = !line.empty() && line[0] == '+';
    if (!pull())
        return StreamStatus::Error;
    if (!plusOk) {
        setError(err, StreamErrorCode::MalformedRecord,
                 scanner.lineNumber() - 1,
                 "expected '+' FASTQ separator");
        return StreamStatus::Error;
    }
    if (!isValidSequence(bases)) {
        setError(err, StreamErrorCode::InvalidBase,
                 scanner.lineNumber() - 2,
                 concat("base outside A/C/G/T/N in '", header, "'"));
        return StreamStatus::Error;
    }
    QualSeq qualSeq;
    if (!tryAsciiToQuals(line, &qualSeq)) {
        setError(err, StreamErrorCode::InvalidQuality,
                 scanner.lineNumber(),
                 concat("quality char outside Sanger range in '",
                        header, "'"));
        return StreamStatus::Error;
    }
    if (bases.size() != qualSeq.size()) {
        setError(err, StreamErrorCode::LengthMismatch,
                 scanner.lineNumber(),
                 concat(std::to_string(bases.size()), " bases but ",
                        std::to_string(qualSeq.size()),
                        " qualities"));
        return StreamStatus::Error;
    }

    Read r;
    r.name = header.substr(1);
    r.bases = std::move(bases);
    r.quals = std::move(qualSeq);
    r.cigar = Cigar();
    *out = std::move(r);
    ++count;
    return StreamStatus::Record;
}

SamLiteStreamReader::SamLiteStreamReader(std::istream &is,
                                         const ReferenceGenome &ref,
                                         StreamLimits limits)
    : scanner(is, limits), genome(ref)
{
}

StreamStatus
SamLiteStreamReader::next(Read *out, ParseError *err)
{
    std::string_view line;
    ParseError scanErr;
    do {
        if (!scanner.next(&line, &scanErr)) {
            if (!scanErr.ok()) {
                if (err)
                    *err = scanErr;
                return StreamStatus::Error;
            }
            return StreamStatus::End;
        }
    } while (line.empty() || line[0] == '#');

    // Split on runs of tabs/spaces (what the batch reader accepted),
    // counting every field for the error message.
    const uint64_t lineno = scanner.lineNumber();
    std::string_view f[8];
    size_t nfields = 0;
    const char *p = line.data();
    const char *const last = p + line.size();
    for (;;) {
        while (p < last && (*p == '\t' || *p == ' '))
            ++p;
        if (p == last)
            break;
        // memchr beats a byte loop over the long bases and
        // qualities fields.
        const char *start = p;
        p = findByte(start, findByte(start, last, '\t'), ' ');
        if (nfields < 8)
            f[nfields] = std::string_view(
                start, static_cast<size_t>(p - start));
        ++nfields;
    }
    if (nfields != 8) {
        setError(err, StreamErrorCode::WrongFieldCount, lineno,
                 concat("expected 8 fields, found ",
                        std::to_string(nfields)));
        return StreamStatus::Error;
    }

    const int32_t contig = genome.findContig(f[1]);
    if (contig < 0) {
        setError(err, StreamErrorCode::UnknownContig, lineno,
                 concat("contig '", f[1], "' not in the reference"));
        return StreamStatus::Error;
    }
    const int64_t contigLen =
        static_cast<int64_t>(genome.contig(contig).seq.size());

    int64_t pos1 = 0;
    if (!parseDecimal(f[2], &pos1)) {
        setError(err, StreamErrorCode::MalformedField, lineno,
                 concat("POS '", f[2], "' is not a whole integer"));
        return StreamStatus::Error;
    }
    if (pos1 < 1 || pos1 - 1 >= contigLen) {
        setError(err, StreamErrorCode::PositionOutOfRange, lineno,
                 concat("POS ", f[2], " outside contig '", f[1],
                        "' (length ", std::to_string(contigLen),
                        ")"));
        return StreamStatus::Error;
    }

    int64_t mapq = 0;
    if (!parseDecimal(f[3], &mapq)) {
        setError(err, StreamErrorCode::MalformedField, lineno,
                 concat("MAPQ '", f[3], "' is not a whole integer"));
        return StreamStatus::Error;
    }
    if (mapq < 0 || mapq > 255) {
        setError(err, StreamErrorCode::FieldOutOfRange, lineno,
                 concat("MAPQ ", f[3], " outside [0, 255]"));
        return StreamStatus::Error;
    }

    Cigar cigar;
    if (!Cigar::tryFromString(f[4], &cigar)) {
        setError(err, StreamErrorCode::MalformedCigar, lineno,
                 concat("malformed CIGAR '", f[4], "'"));
        return StreamStatus::Error;
    }

    int64_t flags = 0;
    if (!parseDecimal(f[5], &flags)) {
        setError(err, StreamErrorCode::MalformedField, lineno,
                 concat("FLAG '", f[5], "' is not a whole integer"));
        return StreamStatus::Error;
    }
    if (flags < 0 || flags > 0xFFFF) {
        setError(err, StreamErrorCode::FieldOutOfRange, lineno,
                 concat("FLAG ", f[5], " outside [0, 65535]"));
        return StreamStatus::Error;
    }

    if (!isValidSequence(f[6])) {
        setError(err, StreamErrorCode::InvalidBase, lineno,
                 concat("base outside A/C/G/T/N in read '", f[0],
                        "'"));
        return StreamStatus::Error;
    }

    QualSeq quals;
    if (!tryAsciiToQuals(f[7], &quals)) {
        setError(err, StreamErrorCode::InvalidQuality, lineno,
                 concat("quality char outside Sanger range in read '",
                        f[0], "'"));
        return StreamStatus::Error;
    }
    if (quals.size() != f[6].size()) {
        setError(err, StreamErrorCode::LengthMismatch, lineno,
                 concat(std::to_string(f[6].size()), " bases but ",
                        std::to_string(quals.size()), " qualities"));
        return StreamStatus::Error;
    }
    if (!cigar.empty() && cigar.readLength() != f[6].size()) {
        setError(err, StreamErrorCode::CigarMismatch, lineno,
                 concat("CIGAR '", f[4], "' consumes ",
                        std::to_string(cigar.readLength()),
                        " bases, sequence has ",
                        std::to_string(f[6].size())));
        return StreamStatus::Error;
    }

    Read r;
    r.name = f[0];
    r.contig = contig;
    r.pos = pos1 - 1;
    r.mapq = static_cast<uint8_t>(mapq);
    r.cigar = std::move(cigar);
    r.reverse = (flags & 0x10) != 0;
    r.duplicate = (flags & 0x400) != 0;
    r.paired = (flags & 0x1) != 0;
    r.firstOfPair = (flags & 0x40) != 0;
    r.bases = f[6];
    r.quals = std::move(quals);
    // Every invariant assertValid checks was validated above, so
    // this cannot fire on untrusted input.
    r.assertValid();
    *out = std::move(r);
    ++count;
    return StreamStatus::Record;
}

SamLiteBatchSource::SamLiteBatchSource(std::istream &is,
                                       const ReferenceGenome &ref,
                                       StreamLimits limits)
    : reader(is, ref, limits)
{
}

StreamStatus
SamLiteBatchSource::nextBatch(int32_t *contig,
                              std::vector<Read> *reads,
                              ParseError *err)
{
    reads->clear();
    if (finished)
        return StreamStatus::End;

    Read r;
    if (!havePending) {
        StreamStatus st = reader.next(&r, err);
        if (st != StreamStatus::Record) {
            finished = true;
            return st;
        }
        pending = std::move(r);
        havePending = true;
    }

    const int32_t batchContig = pending.contig;
    if (!seenContigs.insert(batchContig).second) {
        finished = true;
        setError(err, StreamErrorCode::UngroupedInput, 0,
                 "reads for contig id " +
                     std::to_string(batchContig) +
                     " are not adjacent; streaming input must be "
                     "contig-grouped");
        return StreamStatus::Error;
    }

    reads->push_back(std::move(pending));
    havePending = false;
    for (;;) {
        StreamStatus st = reader.next(&r, err);
        if (st == StreamStatus::End)
            break;
        if (st == StreamStatus::Error) {
            finished = true;
            return st;
        }
        if (r.contig != batchContig) {
            pending = std::move(r);
            havePending = true;
            break;
        }
        reads->push_back(std::move(r));
    }
    *contig = batchContig;
    return StreamStatus::Record;
}

} // namespace iracc
