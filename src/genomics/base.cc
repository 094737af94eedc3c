#include "genomics/base.hh"

#include <array>
#include <cctype>

#include "util/logging.hh"

namespace iracc {

const char kConcreteBases[4] = { 'A', 'C', 'G', 'T' };

Base
charToBase(char c)
{
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'A': return Base::A;
      case 'C': return Base::C;
      case 'G': return Base::G;
      case 'T': return Base::T;
      case 'N': return Base::N;
      default:
        panic("invalid base character '%c' (0x%02x)", c, c);
    }
}

char
baseToChar(Base b)
{
    switch (b) {
      case Base::A: return 'A';
      case Base::C: return 'C';
      case Base::G: return 'G';
      case Base::T: return 'T';
      case Base::N: return 'N';
    }
    panic("invalid Base enum value %d", static_cast<int>(b));
}

namespace {

/** kValidBase[c] is true for A/C/G/T/N in either case. */
constexpr std::array<bool, 256> kValidBase = [] {
    std::array<bool, 256> valid{};
    for (unsigned char c : {'A', 'C', 'G', 'T', 'N'}) {
        valid[c] = true;
        valid[c - 'A' + 'a'] = true;
    }
    return valid;
}();

} // namespace

bool
isValidBaseChar(char c)
{
    return kValidBase[static_cast<unsigned char>(c)];
}

char
complement(char c)
{
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'A': return 'T';
      case 'C': return 'G';
      case 'G': return 'C';
      case 'T': return 'A';
      case 'N': return 'N';
      default:
        panic("cannot complement invalid base '%c'", c);
    }
}

BaseSeq
reverseComplement(const BaseSeq &seq)
{
    BaseSeq out;
    out.reserve(seq.size());
    for (auto it = seq.rbegin(); it != seq.rend(); ++it)
        out.push_back(complement(*it));
    return out;
}

bool
isValidSequence(std::string_view seq)
{
    bool ok = true;
    for (char c : seq)
        ok &= kValidBase[static_cast<unsigned char>(c)];
    return ok;
}

int
baseIndex(char c)
{
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'A': return 0;
      case 'C': return 1;
      case 'G': return 2;
      case 'T': return 3;
      default:
        panic("baseIndex of non-concrete base '%c'", c);
    }
}

} // namespace iracc
