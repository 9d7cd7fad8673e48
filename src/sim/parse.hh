/**
 * @file
 * Strict value parsers shared by every front end: the wbsim,
 * wbtrace and wbcampaign flags and the campaign manifest keys all
 * read numbers through these. The whole string must be the
 * number — "16x", "1e6", "-1", " 5" and "" are rejected, where
 * atoi/strtoull would silently read a prefix or wrap around.
 *
 * Each parser returns "" on success, or a one-line complaint that
 * names @p what (the flag or manifest key) and the defect.
 */

#ifndef WB_SIM_PARSE_HH
#define WB_SIM_PARSE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

namespace wb
{

/** Parse a decimal or 0x-hex unsigned number inside [lo, hi]. */
std::string parseUnsigned(const std::string &what, const std::string &s,
                          std::uint64_t lo, std::uint64_t hi,
                          std::uint64_t &out);

/** parseUnsigned into any integer field; @p hi is capped at the
 *  largest value the field can hold. @p out is untouched on error. */
template <typename T>
std::string
parseCount(const std::string &what, const std::string &s, T &out,
           std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
{
    const std::uint64_t field_max = std::numeric_limits<T>::max();
    std::uint64_t v = 0;
    std::string bad =
        parseUnsigned(what, s, lo, std::min(hi, field_max), v);
    if (bad.empty())
        out = T(v);
    return bad;
}

/** Parse a finite real number inside [lo, hi]. */
std::string parseReal(const std::string &what, const std::string &s,
                      double lo, double hi, double &out);

} // namespace wb

#endif // WB_SIM_PARSE_HH
