#include "sim/parse.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace wb
{

namespace
{

/** Read all of @p s with @p read (a strto* call) into [lo, hi]. */
template <typename T, typename Read>
std::string
parseWhole(const std::string &what, const std::string &s, T lo, T hi,
           T &out, Read read)
{
    errno = 0;
    char *end = nullptr;
    // strto* would skip leading blanks; refuse them instead.
    const bool blank =
        s.empty() || std::isspace(static_cast<unsigned char>(s[0]));
    const T v = blank ? T() : read(s.c_str(), &end);
    std::ostringstream bad;
    bad << what << ": ";
    if (blank || end == s.c_str())
        bad << "'" << s << "' is not a number";
    else if (*end != '\0')
        bad << "trailing garbage '" << end << "' after number in '"
            << s << "'";
    else if (errno != ERANGE && v < lo)
        bad << "must be >= " << lo << ", got " << s;
    else if (errno == ERANGE || !(v <= hi)) // NaN fails here too
        bad << "must be <= " << hi << ", got " << s;
    else {
        out = v;
        return "";
    }
    return bad.str();
}

} // namespace

std::string
parseUnsigned(const std::string &what, const std::string &s,
              std::uint64_t lo, std::uint64_t hi, std::uint64_t &out)
{
    // strtoull would negate "-1" into a huge value.
    if (!s.empty() && (s[0] == '-' || s[0] == '+'))
        return what + ": '" + s + "' is not an unsigned number";
    return parseWhole(what, s, lo, hi, out,
                      [](const char *p, char **end) {
                          return std::uint64_t(std::strtoull(p, end, 0));
                      });
}

std::string
parseReal(const std::string &what, const std::string &s, double lo,
          double hi, double &out)
{
    return parseWhole(what, s, lo, hi, out,
                      [](const char *p, char **end) {
                          return std::strtod(p, end);
                      });
}

} // namespace wb
