/**
 * @file
 * Hostile-input tests for the streaming FASTQ/SAM-lite readers
 * (genomics/stream_io.hh): every StreamErrorCode rejection path is
 * exercised with a concrete malformed input, the block line scanner
 * is checked against a std::getline oracle across its refill
 * boundaries and its line-length and read-ahead bounds, a golden
 * literal pins the writers' bytes, a seeded fuzz loop
 * hammers the SAM-lite reader with random mutations of valid files
 * (run under ASan/UBSan in CI), and the streaming/in-memory
 * bit-equality contract is asserted across the full differential
 * variant matrix at 1 and 4 job threads.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "genomics/io.hh"
#include "genomics/stream_io.hh"
#include "testing/differential.hh"
#include "testing/workload_gen.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

ReferenceGenome
smallRef()
{
    ReferenceGenome ref;
    ref.addContig("Ch9", BaseSeq(100, 'A'));
    ref.addContig("Ch10", BaseSeq(80, 'C'));
    return ref;
}

/** Parse one SAM-lite line and expect a specific rejection. */
void
expectSamError(const std::string &line, StreamErrorCode code)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(line);
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error)
        << "accepted: " << line;
    EXPECT_EQ(err.code, code)
        << line << " rejected as " << streamErrorName(err.code);
    EXPECT_EQ(err.line, 1u);
    EXPECT_FALSE(err.describe().empty());
}

TEST(SamLiteStream, AcceptsValidRecordAndDecodesFlags)
{
    ReferenceGenome ref = smallRef();
    // 0x1 paired | 0x10 reverse | 0x40 first | 0x400 duplicate
    std::istringstream in(
        "r1\tCh9\t6\t60\t4M2I4M\t1105\tACGTACGTAC\tIIIIIIIIII\n");
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(r.name, "r1");
    EXPECT_EQ(r.contig, ref.findContig("Ch9"));
    EXPECT_EQ(r.pos, 5);
    EXPECT_EQ(r.cigar.toString(), "4M2I4M");
    EXPECT_TRUE(r.paired);
    EXPECT_TRUE(r.reverse);
    EXPECT_TRUE(r.firstOfPair);
    EXPECT_TRUE(r.duplicate);
    EXPECT_EQ(r.bases, "ACGTACGTAC");
    ASSERT_EQ(r.quals.size(), 10u);
    EXPECT_EQ(r.quals[0], 'I' - 33);
    EXPECT_EQ(reader.next(&r, &err), StreamStatus::End);
    EXPECT_EQ(reader.records(), 1u);
}

TEST(SamLiteStream, SkipsCommentsBlanksAndCrlf)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "# comment\r\n"
        "\r\n"
        "r1\tCh9\t1\t60\t4M\t0\tACGT\tIIII\r\n");
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(r.bases, "ACGT"); // no trailing '\r' smuggled in
    EXPECT_EQ(r.pos, 0);
    EXPECT_EQ(reader.next(&r, &err), StreamStatus::End);
}

TEST(SamLiteStream, RejectsWrongFieldCount)
{
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACGT",
                   StreamErrorCode::WrongFieldCount);
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACGT\tIIII\textra",
                   StreamErrorCode::WrongFieldCount);
    expectSamError("just-one-token",
                   StreamErrorCode::WrongFieldCount);
}

TEST(SamLiteStream, RejectsUnknownContig)
{
    expectSamError("r1\tChX\t1\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::UnknownContig);
}

TEST(SamLiteStream, RejectsMalformedNumericFields)
{
    // Whole-token parsing: partial tokens the old istringstream
    // reader silently accepted are now rejections.
    expectSamError("r1\tCh9\t5x\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t1\t6o\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t1\t60\t4M\t2f\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    // int64 overflow is malformed, not wrapped.
    expectSamError(
        "r1\tCh9\t99999999999999999999\t60\t4M\t0\tACGT\tIIII",
        StreamErrorCode::MalformedField);
    // Decimal only: no radix prefix, no '+' sign.
    expectSamError("r1\tCh9\t0x10\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t+5\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t1\t0x3c\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t1\t+60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t1\t60\t4M\t0x10\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t1\t60\t4M\t+16\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
}

TEST(SamLiteStream, ParsesLeadingZerosAsDecimal)
{
    ReferenceGenome ref = smallRef();
    // Leading zeros are decimal, never an octal prefix.
    std::istringstream in(
        "r1\tCh9\t010\t060\t4M\t016\tACGT\tIIII\n"
        "r2\tCh9\t08\t09\t4M\t00\tACGT\tIIII\n");
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record)
        << err.describe();
    EXPECT_EQ(r.pos, 9);
    EXPECT_EQ(r.mapq, 60);
    EXPECT_TRUE(r.reverse);
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record)
        << err.describe();
    EXPECT_EQ(r.pos, 7);
    EXPECT_EQ(r.mapq, 9);
    EXPECT_FALSE(r.reverse);
    EXPECT_EQ(reader.next(&r, &err), StreamStatus::End);
}

TEST(SamLiteStream, RejectsOutOfRangePosition)
{
    expectSamError("r1\tCh9\t0\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::PositionOutOfRange);
    expectSamError("r1\tCh9\t-4\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::PositionOutOfRange);
    // Contig Ch9 is 100 bases; 1-based POS 101 starts past the end.
    expectSamError("r1\tCh9\t101\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::PositionOutOfRange);
}

TEST(SamLiteStream, RejectsOutOfRangeMapqAndFlags)
{
    expectSamError("r1\tCh9\t1\t256\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::FieldOutOfRange);
    expectSamError("r1\tCh9\t1\t-1\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::FieldOutOfRange);
    expectSamError("r1\tCh9\t1\t60\t4M\t65536\tACGT\tIIII",
                   StreamErrorCode::FieldOutOfRange);
    expectSamError("r1\tCh9\t1\t60\t4M\t-1\tACGT\tIIII",
                   StreamErrorCode::FieldOutOfRange);
}

TEST(SamLiteStream, RejectsMalformedCigar)
{
    expectSamError("r1\tCh9\t1\t60\t4Q\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedCigar);
    expectSamError("r1\tCh9\t1\t60\tM4\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedCigar);
    expectSamError("r1\tCh9\t1\t60\t4M2\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedCigar);
    // uint32 op-length overflow must not wrap around.
    expectSamError("r1\tCh9\t1\t60\t4294967296M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedCigar);
}

TEST(SamLiteStream, RejectsCigarLengthMismatch)
{
    expectSamError("r1\tCh9\t1\t60\t5M\t0\tACGT\tIIII",
                   StreamErrorCode::CigarMismatch);
    expectSamError("r1\tCh9\t1\t60\t2M1D1M\t0\tACGT\tIIII",
                   StreamErrorCode::CigarMismatch);
}

TEST(SamLiteStream, RejectsBadSequenceAndQualities)
{
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACXT\tIIII",
                   StreamErrorCode::InvalidBase);
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tAC.T\tIIII",
                   StreamErrorCode::InvalidBase);
    // '\x1f' is below the Sanger range ('!' = 33).
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACGT\tII\x1fI",
                   StreamErrorCode::InvalidQuality);
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACGT\tIIIII",
                   StreamErrorCode::LengthMismatch);
}

TEST(SamLiteStream, RejectsOversizedLineWithoutBuffering)
{
    ReferenceGenome ref = smallRef();
    StreamLimits limits;
    limits.maxLineBytes = 64;
    std::string giant(1000, 'A');
    std::istringstream in("r1\tCh9\t1\t60\t4M\t0\t" + giant +
                          "\tIIII\n");
    SamLiteStreamReader reader(in, ref, limits);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::OversizedLine);
}

TEST(SamLiteStream, ErrorAnchorsToOffendingLine)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "r1\tCh9\t1\t60\t4M\t0\tACGT\tIIII\n"
        "# interlude\n"
        "r2\tCh9\tbroken\t60\t4M\t0\tACGT\tIIII\n");
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::MalformedField);
    EXPECT_EQ(err.line, 3u);
    EXPECT_NE(err.describe().find("line 3"), std::string::npos);
}

TEST(FastqStream, RoundTripAndCrlf)
{
    std::istringstream in(
        "@r1\r\nACGTN\r\n+\r\nIIIII\r\n"
        "\n"
        "@r2 with description\nTTTT\n+r2\n!!!!\n");
    FastqStreamReader reader(in);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(r.name, "r1");
    EXPECT_EQ(r.bases, "ACGTN");
    ASSERT_EQ(r.quals.size(), 5u);
    EXPECT_EQ(r.quals[0], 'I' - 33);
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(r.name, "r2 with description");
    EXPECT_EQ(r.quals[0], 0);
    EXPECT_EQ(reader.next(&r, &err), StreamStatus::End);
    EXPECT_EQ(reader.records(), 2u);
}

void
expectFastqError(const std::string &text, StreamErrorCode code)
{
    std::istringstream in(text);
    FastqStreamReader reader(in);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error)
        << "accepted: " << text;
    EXPECT_EQ(err.code, code)
        << text << " rejected as " << streamErrorName(err.code);
}

TEST(FastqStream, RejectsHostileRecords)
{
    expectFastqError("r1\nACGT\n+\nIIII\n",
                     StreamErrorCode::MalformedRecord); // no '@'
    expectFastqError("@\nACGT\n+\nIIII\n",
                     StreamErrorCode::MalformedRecord); // empty name
    expectFastqError("@r1\nACGT\n",
                     StreamErrorCode::TruncatedRecord);
    expectFastqError("@r1\nACGT\nIIII\nIIII\n",
                     StreamErrorCode::MalformedRecord); // no '+'
    expectFastqError("@r1\nAC-T\n+\nIIII\n",
                     StreamErrorCode::InvalidBase);
    expectFastqError("@r1\nACGT\n+\nII\x08I\n",
                     StreamErrorCode::InvalidQuality);
    expectFastqError("@r1\nACGT\n+\nIII\n",
                     StreamErrorCode::LengthMismatch);
}

TEST(FastqStream, RejectsOversizedLine)
{
    StreamLimits limits;
    limits.maxLineBytes = 32;
    std::string giant(100, 'A');
    std::istringstream in("@r1\n" + giant + "\n+\n" +
                          std::string(100, 'I') + "\n");
    FastqStreamReader reader(in, limits);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::OversizedLine);
}

/** What std::getline makes of @p text, one trailing '\r' dropped. */
std::vector<std::string>
getlineOracle(const std::string &text)
{
    std::istringstream in(text);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        lines.push_back(line);
    }
    return lines;
}

/** Drain a LineScanner over @p text; it must end without error. */
std::vector<std::string>
scanLines(const std::string &text, StreamLimits limits = {})
{
    std::istringstream in(text);
    LineScanner scanner(in, limits);
    std::vector<std::string> lines;
    std::string_view line;
    ParseError err;
    while (scanner.next(&line, &err))
        lines.emplace_back(line);
    EXPECT_TRUE(err.ok()) << err.describe();
    EXPECT_EQ(scanner.lineNumber(), lines.size());
    return lines;
}

TEST(LineScanner, MatchesGetlineAcrossRefillBoundaries)
{
    constexpr size_t kBlock = LineScanner::kBlockBytes;
    std::string nul("n\0l", 3);
    for (const std::string eol : {"\n", "\r\n"}) {
        for (bool finalEol : {true, false}) {
            // The first line's terminator lands at every offset
            // around the first refill, so '\r' and '\n' split
            // across it too; the block-long third line straddles
            // the second refill.
            for (size_t first = kBlock - 4; first <= kBlock + 3;
                 ++first) {
                std::string text = std::string(first, 'a') + eol +
                                   nul + eol + std::string(kBlock, 'c') +
                                   eol + eol + "tail";
                if (finalEol)
                    text += eol;
                EXPECT_EQ(scanLines(text), getlineOracle(text))
                    << "first=" << first << " crlf=" << eol.size()
                    << " finalEol=" << finalEol;
            }
        }
    }
    for (const std::string &text :
         {std::string(), std::string("\n"), std::string("\n\n"),
          std::string("\r\n"), std::string("x"), std::string("\r"),
          std::string("a\0b\nc\0\n", 7)}) {
        EXPECT_EQ(scanLines(text), getlineOracle(text));
    }
}

/** Expect line @p line of @p text to be rejected as oversized. */
void
expectOversized(const std::string &text, size_t limit, uint64_t line)
{
    std::istringstream in(text);
    StreamLimits limits;
    limits.maxLineBytes = limit;
    LineScanner scanner(in, limits);
    std::string_view view;
    ParseError err;
    while (scanner.next(&view, &err)) {
    }
    EXPECT_EQ(err.code, StreamErrorCode::OversizedLine);
    EXPECT_EQ(err.line, line);
    // Sticky: the scanner does not resume mid-line.
    ParseError again;
    EXPECT_FALSE(scanner.next(&view, &again));
    EXPECT_EQ(again.code, StreamErrorCode::OversizedLine);
}

TEST(LineScanner, EnforcesMaxLineBytesExactly)
{
    for (size_t limit : {size_t{16}, LineScanner::kBlockBytes + 5}) {
        StreamLimits limits;
        limits.maxLineBytes = limit;
        const std::string atLimit(limit, 'x');
        // Length == limit is accepted, with or without a newline.
        EXPECT_EQ(scanLines("ok\n" + atLimit + "\nend\n", limits),
                  getlineOracle("ok\n" + atLimit + "\nend\n"));
        EXPECT_EQ(scanLines(atLimit, limits),
                  std::vector<std::string>{atLimit});
        // The '\r' of CRLF counts toward the limit.
        const std::string crlfAtLimit(limit - 1, 'x');
        EXPECT_EQ(scanLines(crlfAtLimit + "\r\n", limits),
                  std::vector<std::string>{crlfAtLimit});
        // limit + 1 is rejected, anchored to its line.
        expectOversized("ok\n" + atLimit + "y\nend\n", limit, 2);
        expectOversized(atLimit + "y", limit, 1);
        expectOversized(atLimit + "\r\n", limit, 1);
    }
}

/** An endless line without a newline that counts bytes handed out. */
class EndlessLineBuf : public std::streambuf
{
  public:
    uint64_t pulled = 0;

  protected:
    std::streamsize
    xsgetn(char *s, std::streamsize n) override
    {
        std::memset(s, 'A', static_cast<size_t>(n));
        pulled += static_cast<uint64_t>(n);
        return n;
    }

    int_type
    underflow() override
    {
        one = 'A';
        setg(&one, &one, &one + 1);
        ++pulled;
        return traits_type::to_int_type(one);
    }

  private:
    char one = 'A';
};

TEST(LineScanner, StopsReadingAnEndlessLine)
{
    for (size_t limit : {size_t{100}, StreamLimits{}.maxLineBytes}) {
        EndlessLineBuf endless;
        std::istream in(&endless);
        StreamLimits limits;
        limits.maxLineBytes = limit;
        LineScanner scanner(in, limits);
        std::string_view line;
        ParseError err;
        EXPECT_FALSE(scanner.next(&line, &err));
        EXPECT_EQ(err.code, StreamErrorCode::OversizedLine);
        EXPECT_EQ(err.line, 1u);
        EXPECT_LE(endless.pulled, limit + LineScanner::kBlockBytes);
    }
}

/**
 * Hand-written SAM-lite covering every flag combination the writer
 * emits, '*' and multi-op CIGARs, POS 1 and a 9-digit POS, MAPQ 0
 * and 255, Phred 0 ('!') and kMaxPhred ('~'), and lower-case bases.
 * Every other writer check compares two outputs of the same build,
 * so only a literal catches a writer that changes bytes.
 */
const char kGoldenSamLite[] =
    "u0\tChBig\t1\t0\t*\t0\tACGT\t!!!!\n"
    "u1\tChBig\t2\t60\t4M\t16\tacgt\t~~~~\n"
    "u2\tChBig\t3\t255\t1S2M1I3M\t1024\tACGTNAC\t!5?I^h~\n"
    "u3\tChBig\t4\t7\t2M3D2M\t1040\tNNNN\tIIII\n"
    "p0\tChBig\t100000000\t60\t4M\t65\tACGT\tIIII\n"
    "p1\tChBig\t123456789\t60\t2S2M\t81\tACGT\t!~!~\n"
    "p2\tCh9\t1\t60\t4M\t1089\tACGT\tIIII\n"
    "p3\tCh9\t97\t60\t4M\t1105\tTTTT\tIIII\n"
    "s0\tCh9\t5\t60\t9M2D4M1I\t129\tACGTACGTACGTAC\t"
    "0123456789:;<=\n"
    "s1\tCh9\t6\t60\t4M\t145\tACGT\tIIII\n"
    "s2\tCh9\t7\t60\t4M\t1153\tACGT\tIIII\n"
    "s3\tCh9\t8\t60\t4M\t1169\tACGT\t!!~~\n";

TEST(Writers, SamLiteGoldenRoundTripsByteForByte)
{
    ReferenceGenome ref = smallRef();
    ref.addContig("ChBig", BaseSeq(123456800, 'A'));
    // Enough copies that the writer hands over several chunks.
    std::string golden;
    for (int i = 0; i < 1000; ++i)
        golden += kGoldenSamLite;
    std::istringstream in(golden);
    std::vector<Read> reads = readSamLite(in, ref);
    ASSERT_EQ(reads.size(), 12000u);
    std::ostringstream out;
    writeSamLite(out, ref, reads);
    EXPECT_EQ(out.str(), golden);
}

TEST(Writers, FastqGoldenRoundTripsByteForByte)
{
    const std::string golden =
        "@r1\nACGTN\n+\n!5I^~\n"
        "@r2 described\nacgt\n+\n~~!!\n"
        "@r3\n\n+\n\n";
    std::istringstream in(golden);
    std::vector<Read> reads = readFastq(in);
    ASSERT_EQ(reads.size(), 3u);
    std::ostringstream out;
    writeFastq(out, reads);
    EXPECT_EQ(out.str(), golden);
}

TEST(BatchSource, GroupsByContigInOrder)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "a\tCh9\t1\t60\t4M\t0\tACGT\tIIII\n"
        "b\tCh9\t3\t60\t4M\t0\tACGT\tIIII\n"
        "c\tCh10\t2\t60\t4M\t0\tCCCC\tIIII\n");
    SamLiteBatchSource source(in, ref);
    int32_t contig = -1;
    std::vector<Read> batch;
    ParseError err;
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Record);
    EXPECT_EQ(contig, ref.findContig("Ch9"));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].name, "a");
    EXPECT_EQ(batch[1].name, "b");
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Record);
    EXPECT_EQ(contig, ref.findContig("Ch10"));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::End);
    EXPECT_EQ(source.records(), 3u);
}

TEST(BatchSource, RejectsUngroupedInput)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "a\tCh9\t1\t60\t4M\t0\tACGT\tIIII\n"
        "b\tCh10\t1\t60\t4M\t0\tCCCC\tIIII\n"
        "c\tCh9\t5\t60\t4M\t0\tACGT\tIIII\n");
    SamLiteBatchSource source(in, ref);
    int32_t contig = -1;
    std::vector<Read> batch;
    ParseError err;
    // The Ch9 and Ch10 runs stream out fine; the error anchors to
    // the batch that would reopen an already-finished contig.
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Record);
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Record);
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::UngroupedInput);
    // Poisoned after an error.
    EXPECT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::End);
}

TEST(BatchSource, PropagatesParseErrorAndPoisons)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "a\tCh9\t1\t60\t4M\t0\tACGT\tIIII\n"
        "b\tCh9\tnope\t60\t4M\t0\tACGT\tIIII\n");
    SamLiteBatchSource source(in, ref);
    int32_t contig = -1;
    std::vector<Read> batch;
    ParseError err;
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::MalformedField);
    EXPECT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::End);
}

TEST(BatchSource, EmptyStreamEndsCleanly)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in("# only a comment\n\n");
    SamLiteBatchSource source(in, ref);
    int32_t contig = -1;
    std::vector<Read> batch;
    ParseError err;
    EXPECT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::End);
}

/**
 * Seeded fuzz loop: mutate a valid SAM-lite serialization with
 * random byte edits (overwrite / insert / delete / truncate) and
 * drain the streaming reader.  The property under test is "no
 * crash, no panic, no UB" -- CI runs this under ASan/UBSan; any
 * outcome other than clean Records/End/Error fails by aborting.
 */
TEST(StreamFuzz, RandomMutationsNeverCrashSamReader)
{
    ReferenceGenome ref = smallRef();
    std::vector<Read> reads;
    Rng seedRng(0xF422);
    for (int i = 0; i < 20; ++i) {
        Read r;
        r.name = "r" + std::to_string(i);
        r.contig = static_cast<int32_t>(i % 2);
        r.pos = static_cast<int64_t>(seedRng.below(60));
        r.bases = BaseSeq(10, "ACGT"[i % 4]);
        r.quals = QualSeq(10, 30);
        r.cigar = Cigar::simpleMatch(10);
        reads.push_back(std::move(r));
    }
    std::ostringstream base;
    writeSamLite(base, ref, reads);
    const std::string clean = base.str();

    Rng rng(0xD00F);
    for (int iter = 0; iter < 300; ++iter) {
        std::string mutated = clean;
        const int edits = 1 + static_cast<int>(rng.below(8));
        for (int e = 0; e < edits && !mutated.empty(); ++e) {
            size_t at = rng.below(mutated.size());
            switch (rng.below(4)) {
            case 0:
                mutated[at] =
                    static_cast<char>(rng.below(256));
                break;
            case 1:
                mutated.insert(
                    at, 1, static_cast<char>(rng.below(256)));
                break;
            case 2:
                mutated.erase(at, 1 + rng.below(4));
                break;
            default:
                mutated.resize(at); // truncate
                break;
            }
        }
        std::istringstream in(mutated);
        SamLiteStreamReader reader(in, ref);
        Read r;
        ParseError err;
        StreamStatus st;
        uint64_t produced = 0;
        while ((st = reader.next(&r, &err)) ==
               StreamStatus::Record) {
            r.assertValid(); // accepted records must be sound
            ++produced;
        }
        if (st == StreamStatus::Error) {
            EXPECT_NE(err.code, StreamErrorCode::None);
            EXPECT_FALSE(err.describe().empty());
        }
        EXPECT_EQ(produced, reader.records());
    }
}

/** Same property for the FASTQ reader. */
TEST(StreamFuzz, RandomMutationsNeverCrashFastqReader)
{
    std::string clean;
    for (int i = 0; i < 20; ++i) {
        clean += "@read" + std::to_string(i) + "\nACGTACGTAC\n+\n" +
                 std::string(10, char('!' + (i % 90))) + "\n";
    }
    Rng rng(0xFA57);
    for (int iter = 0; iter < 300; ++iter) {
        std::string mutated = clean;
        const int edits = 1 + static_cast<int>(rng.below(8));
        for (int e = 0; e < edits && !mutated.empty(); ++e) {
            size_t at = rng.below(mutated.size());
            switch (rng.below(4)) {
            case 0:
                mutated[at] =
                    static_cast<char>(rng.below(256));
                break;
            case 1:
                mutated.insert(
                    at, 1, static_cast<char>(rng.below(256)));
                break;
            case 2:
                mutated.erase(at, 1 + rng.below(4));
                break;
            default:
                mutated.resize(at);
                break;
            }
        }
        std::istringstream in(mutated);
        FastqStreamReader reader(in);
        Read r;
        ParseError err;
        while (reader.next(&r, &err) == StreamStatus::Record) {
        }
    }
}

/**
 * The streaming bit-equality contract (docs/TESTING.md): for every
 * differential design point -- software/accelerated x pruning x
 * {1, 4} job threads, kernel-pinned and fleet points included --
 * streamed ingest must produce byte-identical SAM-lite output and
 * an identical RealignStats against the in-memory path.
 */
TEST(StreamingBitEquality, MatchesInMemoryAcrossAllVariants)
{
    difftest::DiffResult r = difftest::diffStreamingIngestSeed(1);
    EXPECT_TRUE(r.ok) << r.variant << ": " << r.detail;
}

/** Same contract over a hostile scenario workload. */
TEST(StreamingBitEquality, MatchesInMemoryOnScenarioWorkload)
{
    difftest::ScenarioWorkload wl = difftest::makeScenarioWorkload(
        difftest::ScenarioProfile::SvDense, 1, /*compact=*/true);
    difftest::DiffResult r =
        difftest::diffStreamingIngest(wl.reference, wl.reads);
    EXPECT_TRUE(r.ok) << r.variant << ": " << r.detail;
}

} // namespace
} // namespace iracc
