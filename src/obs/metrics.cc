#include "obs/metrics.hh"

#include <cassert>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <unistd.h>

#include "system/json_writer.hh"

namespace wb
{

const char *
metricKindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

std::string
MetricsRegistry::componentOf(const std::string &name)
{
    auto dot = name.rfind('.');
    return dot == std::string::npos ? std::string()
                                    : name.substr(0, dot);
}

void
MetricsRegistry::addGauge(const std::string &name,
                          const std::string &unit,
                          std::function<std::uint64_t()> poll)
{
    assert(poll);
    assert(!_stats || !_stats->find(name));
    auto [it, inserted] = _gauges.emplace(name, Gauge{unit,
                                                     std::move(poll)});
    (void)it;
    assert(inserted && "duplicate gauge name");
}

template <typename Fn>
void
MetricsRegistry::forEachMetric(Fn &&fn) const
{
    // Both sources iterate in sorted name order; merge them.
    static const std::map<std::string, StatBase *> none;
    const auto &stats = _stats ? _stats->all() : none;
    auto si = stats.begin();
    auto gi = _gauges.begin();
    while (si != stats.end() || gi != _gauges.end()) {
        if (gi == _gauges.end() ||
            (si != stats.end() && si->first < gi->first)) {
            fn(si->first, si->second, nullptr);
            ++si;
        } else {
            fn(gi->first, nullptr, &gi->second);
            ++gi;
        }
    }
}

std::vector<MetricDesc>
MetricsRegistry::describe() const
{
    std::vector<MetricDesc> out;
    forEachMetric([&out](const std::string &name, const StatBase *stat,
                         const Gauge *gauge) {
        const MetricKind kind =
            gauge ? MetricKind::Gauge
            : dynamic_cast<const Histogram *>(stat) ? MetricKind::Histogram
                                                    : MetricKind::Counter;
        out.push_back({name, kind, gauge ? gauge->unit : stat->unit(),
                       componentOf(name)});
    });
    return out;
}

namespace
{

using S = MetricsSummary;

/** Every MetricsSummary roll-up: the registry metrics it sums (unit
 *  class up to the first '.', stat name after the last '.') and, for
 *  the timeline's columns in CSV order, the column name, its
 *  Perfetto counter track, and whether it reports the per-period
 *  delta of a running total. */
const struct Rollup
{
    std::string_view unit, stat;
    std::uint64_t S::*field;
    const char *column = nullptr, *track = nullptr;
    bool delta = false;
} rollups[] = {
    {"core", "commits", &S::instructions},
    {"core", "stores", &S::stores},
    {"llc", "writersBlockEntries", &S::wbEntries},
    {"core", "rob", &S::rob, "rob", "rob"},
    {"core", "iq", &S::iq, "iq", "iq"},
    {"core", "lq", &S::lq, "lq", "lq"},
    {"core", "sq", &S::sq, "sq", "sq"},
    {"core", "sb", &S::sb, "sb", "sb"},
    {"core", "locksHeld", &S::lockdowns, "lockdowns", "lockdowns"},
    {"l1", "mshrs", &S::mshrs, "mshrs", "mshrs"},
    {"l1", "writebacks", &S::writebacks, "writebacks", "writebacks"},
    {"net", "inFlight", &S::inFlight, "inFlight", "net inFlight"},
    {"net", "flitHopsReq", &S::flitHopsReq, "vnetReqFlits", "flits req",
     true},
    {"net", "flitHopsFwd", &S::flitHopsFwd, "vnetFwdFlits", "flits fwd",
     true},
    {"net", "flitHopsResp", &S::flitHopsResp, "vnetRespFlits",
     "flits resp", true},
};

/** The summary field metric @p name rolls up into, or nullptr. */
std::uint64_t *
rollupOf(S &sum, const std::string &name)
{
    const std::string_view n(name);
    const std::string_view stat = n.substr(n.rfind('.') + 1);
    for (const Rollup &r : rollups)
        if (r.stat == stat && n.starts_with(r.unit) &&
            n[r.unit.size()] == '.')
            return &(sum.*r.field);
    return nullptr;
}

/** Timeline value of column @p r in sample @p cur; delta columns
 *  count since @p prev (nullptr: the first sample). */
std::uint64_t
columnValue(const Rollup &r, const S &cur, const S *prev)
{
    return cur.*r.field - (r.delta && prev ? prev->*r.field : 0);
}

} // namespace

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::values(MetricsSummary *summary) const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    forEachMetric([&](const std::string &name, const StatBase *stat,
                      const Gauge *gauge) {
        std::uint64_t v;
        if (gauge)
            v = gauge->poll();
        else if (auto *h = dynamic_cast<const Histogram *>(stat))
            v = h->samples();
        else if (auto *c = dynamic_cast<const Counter *>(stat))
            v = c->value();
        else
            return;
        out.emplace_back(name, v);
        if (summary)
            if (std::uint64_t *field = rollupOf(*summary, name))
                *field += v;
    });
    return out;
}

namespace
{

/** Prometheus metric-name sanitization: [a-zA-Z0-9_] only. */
std::string
promName(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

/** Minimal JSON string escaping (names/units are ASCII already). */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

std::string
promLabels(const std::string &component, const std::string &unit)
{
    std::string out = "{component=\"" + component + "\"";
    if (!unit.empty())
        out += ",unit=\"" + unit + "\"";
    return out; // caller appends extra labels + "}"
}

} // namespace

void
MetricsRegistry::writeExposition(std::ostream &os) const
{
    // Group series by family ("component.stat" -> family "wb_stat")
    // so each family gets exactly one TYPE header; std::map keeps
    // both families and their series deterministically sorted.
    struct Family
    {
        MetricKind kind = MetricKind::Counter;
        std::map<std::string, std::string> series; // name -> lines
    };
    std::map<std::string, Family> families;

    auto familyOf = [](const std::string &name) {
        auto dot = name.rfind('.');
        std::string shortName =
            dot == std::string::npos ? name : name.substr(dot + 1);
        return "wb_" + promName(shortName);
    };

    if (_stats) {
        for (const auto &[name, stat] : _stats->all()) {
            std::string fam = familyOf(name);
            std::string comp = componentOf(name);
            std::string labels = promLabels(comp, stat->unit());
            auto &f = families[fam];
            std::string lines;
            if (auto *h = dynamic_cast<const Histogram *>(stat)) {
                f.kind = MetricKind::Histogram;
                for (auto [q, v] :
                     {std::pair<const char *, std::uint64_t>
                          {"0.5", h->p50()},
                      {"0.95", h->p95()},
                      {"0.99", h->p99()}}) {
                    lines += fam + labels + ",quantile=\"" + q +
                             "\"} " + std::to_string(v) + "\n";
                }
                lines += fam + "_sum" + labels + "} " +
                         std::to_string(h->sum()) + "\n";
                lines += fam + "_count" + labels + "} " +
                         std::to_string(h->samples()) + "\n";
            } else if (auto *c = dynamic_cast<const Counter *>(stat)) {
                f.kind = MetricKind::Counter;
                lines = fam + labels + "} " +
                        std::to_string(c->value()) + "\n";
            }
            f.series.emplace(name, std::move(lines));
        }
    }
    for (const auto &[name, g] : _gauges) {
        std::string fam = familyOf(name);
        auto &f = families[fam];
        f.kind = MetricKind::Gauge;
        f.series.emplace(name,
                         fam + promLabels(componentOf(name), g.unit) +
                             "} " + std::to_string(g.poll()) + "\n");
    }

    for (const auto &[fam, f] : families) {
        const char *type = f.kind == MetricKind::Histogram
                               ? "summary"
                               : f.kind == MetricKind::Gauge ? "gauge"
                                                             : "counter";
        os << "# TYPE " << fam << " " << type << "\n";
        for (const auto &[name, lines] : f.series)
            os << lines;
    }
}

MetricsStreamer::MetricsStreamer(const MetricsRegistry *reg,
                                 Tick period)
    : _reg(reg), _period(period ? period : 1)
{}

MetricsStreamer::~MetricsStreamer()
{
    if (_file)
        std::fclose(_file);
}

bool
MetricsStreamer::openFile(const std::string &spec, std::string &err)
{
    if (spec.rfind("fd:", 0) == 0) {
        errno = 0;
        char *end = nullptr;
        long fd = std::strtol(spec.c_str() + 3, &end, 10);
        if (end == spec.c_str() + 3 || *end != '\0' || fd < 0) {
            err = "bad descriptor in '" + spec + "'";
            return false;
        }
        int dup_fd = ::dup(static_cast<int>(fd));
        if (dup_fd < 0) {
            err = "dup(" + std::to_string(fd) + "): " +
                  std::strerror(errno);
            return false;
        }
        _file = ::fdopen(dup_fd, "w");
        if (!_file) {
            err = "fdopen: " + std::string(std::strerror(errno));
            ::close(dup_fd);
            return false;
        }
        return true;
    }
    _file = std::fopen(spec.c_str(), "w");
    if (!_file) {
        err = spec + ": " + std::strerror(errno);
        return false;
    }
    return true;
}

void
MetricsStreamer::writeLine(const std::string &line,
                           const MetricsSummary &sum)
{
    if (_file) {
        std::fwrite(line.data(), 1, line.size(), _file);
        std::fputc('\n', _file);
        std::fflush(_file);
    }
    if (_callback)
        _callback(sum, line);
    ++_lines;
}

void
MetricsStreamer::emitHeader()
{
    if (_headerDone)
        return;
    _headerDone = true;
    std::string line = "{\"schema\":\"wb-metrics-1\",\"period\":" +
                       std::to_string(_period);
    if (_hasWall)
        line += ",\"wall\":{\"startedUnixMs\":" +
                std::to_string(_wallMs) + "}";
    line += ",\"metrics\":[";
    bool first = true;
    for (const auto &d : _reg->describe()) {
        if (!first)
            line += ",";
        first = false;
        line += "{\"name\":" + jsonStr(d.name) + ",\"kind\":\"" +
                metricKindName(d.kind) + "\"";
        if (!d.unit.empty())
            line += ",\"unit\":" + jsonStr(d.unit);
        line += ",\"component\":" + jsonStr(d.component) + "}";
    }
    line += "]}";
    MetricsSummary sum; // header frame carries an empty summary
    writeLine(line, sum);
}

void
MetricsStreamer::emit(Tick tick)
{
    emitHeader();
    if (tick == _lastTick)
        return;
    MetricsSummary sum;
    sum.tick = tick;
    auto vals = _reg->values(&sum);
    std::string body;
    // Both value lists are sorted by name: walk them in step.
    auto prev = _last.begin();
    for (const auto &[name, v] : vals) {
        int order = 1;
        while (prev != _last.end() &&
               (order = prev->first.compare(name)) < 0)
            ++prev;
        const bool changed =
            _emittedData ? order != 0 || prev->second != v : v != 0;
        if (changed) {
            if (!body.empty())
                body += ",";
            body += jsonStr(name) + ":" + std::to_string(v);
        }
    }
    _last = std::move(vals);
    if (body.empty())
        return;
    _emittedData = true;
    _lastTick = tick;
    writeLine("{\"tick\":" + std::to_string(tick) + ",\"v\":{" +
                  body + "}}",
              sum);
}

void
forEachTimelineColumn(
    const MetricsSummary &cur, const MetricsSummary *prev,
    const std::function<void(const char *, std::uint64_t)> &fn)
{
    for (const Rollup &r : rollups)
        if (r.column)
            fn(r.track, columnValue(r, cur, prev));
}

void
writeTimelineCsv(std::ostream &os,
                 const std::vector<MetricsSummary> &samples)
{
    os << "cycle";
    for (const Rollup &r : rollups)
        if (r.column)
            os << ',' << r.column;
    os << '\n';
    const MetricsSummary *prev = nullptr;
    for (const MetricsSummary &s : samples) {
        os << s.tick;
        for (const Rollup &r : rollups)
            if (r.column)
                os << ',' << columnValue(r, s, prev);
        os << '\n';
        prev = &s;
    }
}

void
writeTimelineJson(std::ostream &os, Tick period,
                  const std::vector<MetricsSummary> &samples)
{
    JsonWriter w(os);
    w.openObject();
    w.field("period", std::uint64_t(period));
    w.openArray("samples");
    const MetricsSummary *prev = nullptr;
    for (const MetricsSummary &s : samples) {
        w.openObject();
        w.field("cycle", std::uint64_t(s.tick));
        for (const Rollup &r : rollups)
            if (r.column && !r.delta)
                w.field(r.column, columnValue(r, s, prev));
        w.openArray("vnetFlitHops");
        for (const Rollup &r : rollups)
            if (r.delta)
                w.field("", columnValue(r, s, prev));
        w.closeArray();
        w.closeObject();
        prev = &s;
    }
    w.closeArray();
    w.closeObject();
    os << '\n';
}

} // namespace wb
