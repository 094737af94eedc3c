#include "genomics/quality.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.hh"

namespace iracc {

double
phredToErrorProb(uint8_t q)
{
    return std::pow(10.0, -static_cast<double>(q) / 10.0);
}

uint8_t
errorProbToPhred(double p)
{
    if (p <= 0.0)
        return kMaxPhred;
    if (p >= 1.0)
        return 0;
    double q = -10.0 * std::log10(p);
    if (q < 0.0)
        q = 0.0;
    if (q > kMaxPhred)
        q = kMaxPhred;
    return static_cast<uint8_t>(std::lround(q));
}

char
phredToAscii(uint8_t q)
{
    panic_if(q > kMaxPhred, "Phred score %u exceeds max %u", q,
             kMaxPhred);
    return static_cast<char>(q + 33);
}

uint8_t
asciiToPhred(char c)
{
    int q = static_cast<unsigned char>(c) - 33;
    panic_if(q < 0 || q > kMaxPhred,
             "invalid FASTQ quality character '%c'", c);
    return static_cast<uint8_t>(q);
}

std::string
qualsToAscii(const QualSeq &quals)
{
    std::string out;
    out.reserve(quals.size());
    for (uint8_t q : quals)
        out.push_back(phredToAscii(q));
    return out;
}

QualSeq
asciiToQuals(const std::string &s)
{
    QualSeq out;
    out.reserve(s.size());
    for (char c : s)
        out.push_back(asciiToPhred(c));
    return out;
}

bool
tryAsciiToQuals(std::string_view s, QualSeq *out)
{
    QualSeq quals(s.size());
    // Unsigned wrap folds "below '!'" into "above the range", so
    // one max over the scores checks both ends (and vectorizes).
    uint8_t worst = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const uint8_t q =
            static_cast<uint8_t>(static_cast<unsigned char>(s[i]) - 33);
        worst = std::max(worst, q);
        quals[i] = q;
    }
    if (worst > kMaxPhred)
        return false;
    *out = std::move(quals);
    return true;
}

} // namespace iracc
