#include "sim/fault.hh"

#include <cstdio>
#include <vector>

#include "sim/parse.hh"

namespace wb
{

namespace
{

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t next = s.find(sep, pos);
        if (next == std::string::npos)
            next = s.size();
        out.push_back(s.substr(pos, next - pos));
        pos = next + 1;
    }
    return out;
}

bool
parseProb(const std::string &s, double &out)
{
    return parseReal("", s, 0.0, 1.0, out).empty();
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    return parseCount("", s, out).empty();
}

std::string
probStr(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", p);
    return buf;
}

} // namespace

std::string
FaultConfig::spec() const
{
    std::string s = "seed=" + std::to_string(seed);
    if (delayProb > 0.0)
        s += ",delay=" + probStr(delayProb) + ":" +
             std::to_string(delayMax);
    if (dupProb > 0.0)
        s += ",dup=" + probStr(dupProb) + ":" +
             std::to_string(dupOffsetMax);
    if (reorderProb > 0.0)
        s += ",reorder=" + probStr(reorderProb) + ":" +
             std::to_string(reorderBurst) + ":" +
             std::to_string(reorderMax);
    if (dropProb > 0.0)
        s += ",drop=" + probStr(dropProb) + ":" +
             std::to_string(dropMax);
    return s;
}

std::string
FaultConfig::validate() const
{
    const struct
    {
        const char *name;
        double prob;
    } probs[] = {
        {"delay", delayProb},
        {"dup", dupProb},
        {"reorder", reorderProb},
        {"drop", dropProb},
    };
    for (const auto &p : probs)
        if (p.prob < 0.0 || p.prob > 1.0)
            return std::string(p.name) +
                   " probability outside [0,1]: " + probStr(p.prob);
    if (delayProb > 0.0 && delayMax == 0)
        return "delay armed with zero delayMax";
    if (dupProb > 0.0 && dupOffsetMax == 0)
        return "dup armed with zero dupOffsetMax";
    if (reorderProb > 0.0 && (reorderBurst == 0 || reorderMax == 0))
        return "reorder armed with zero burst or max";
    if (dropProb > 0.0 && dropMax == 0)
        return "drop armed with zero dropMax";
    return "";
}

bool
parseFaultSpec(const std::string &spec, FaultConfig &out,
               std::string &err)
{
    FaultConfig cfg;
    for (const std::string &clause : splitOn(spec, ',')) {
        if (clause.empty())
            continue;
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos) {
            err = "missing '=' in clause '" + clause + "'";
            return false;
        }
        const std::string key = clause.substr(0, eq);
        const auto args = splitOn(clause.substr(eq + 1), ':');
        std::uint64_t n = 0;
        if (key == "seed") {
            if (args.size() != 1 || !parseU64(args[0], cfg.seed)) {
                err = "bad seed in '" + clause + "'";
                return false;
            }
        } else if (key == "delay") {
            if (args.empty() || args.size() > 2 ||
                !parseProb(args[0], cfg.delayProb)) {
                err = "bad delay clause '" + clause + "'";
                return false;
            }
            if (args.size() == 2) {
                if (!parseU64(args[1], n) || n == 0) {
                    err = "bad delay max in '" + clause + "'";
                    return false;
                }
                cfg.delayMax = Tick(n);
            }
        } else if (key == "dup") {
            if (args.empty() || args.size() > 2 ||
                !parseProb(args[0], cfg.dupProb)) {
                err = "bad dup clause '" + clause + "'";
                return false;
            }
            if (args.size() == 2) {
                if (!parseU64(args[1], n) || n == 0) {
                    err = "bad dup max in '" + clause + "'";
                    return false;
                }
                cfg.dupOffsetMax = Tick(n);
            }
        } else if (key == "reorder") {
            if (args.empty() || args.size() > 3 ||
                !parseProb(args[0], cfg.reorderProb)) {
                err = "bad reorder clause '" + clause + "'";
                return false;
            }
            if (args.size() >= 2) {
                if (!parseU64(args[1], n) || n == 0) {
                    err = "bad reorder burst in '" + clause + "'";
                    return false;
                }
                cfg.reorderBurst = unsigned(n);
            }
            if (args.size() == 3) {
                if (!parseU64(args[2], n) || n == 0) {
                    err = "bad reorder max in '" + clause + "'";
                    return false;
                }
                cfg.reorderMax = Tick(n);
            }
        } else if (key == "drop") {
            if (args.empty() || args.size() > 2 ||
                !parseProb(args[0], cfg.dropProb)) {
                err = "bad drop clause '" + clause + "'";
                return false;
            }
            if (args.size() == 2) {
                if (!parseU64(args[1], n) || n == 0) {
                    err = "bad drop max in '" + clause + "'";
                    return false;
                }
                cfg.dropMax = unsigned(n);
            }
        } else {
            err = "unknown fault key '" + key + "'";
            return false;
        }
    }
    // The per-clause checks above should make this unreachable, but
    // keep the parsed config honest against the same contract that
    // guards programmatic FaultConfigs.
    const std::string bad = cfg.validate();
    if (!bad.empty()) {
        err = bad;
        return false;
    }
    out = cfg;
    err.clear();
    return true;
}

} // namespace wb
