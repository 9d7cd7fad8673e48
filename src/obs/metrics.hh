/**
 * @file
 * Typed metrics registry and interval snapshot streaming.
 *
 * The MetricsRegistry is the run's single metrics namespace: every
 * counter and histogram a SimObject creates through its StatGroup is
 * visible here (via the System's StatRegistry), and components add
 * live occupancy *gauges* — poll callbacks — through
 * SimObject::registerMetrics(). Each metric carries a kind, an
 * optional unit label, and a component label derived from its
 * "component.stat" name. Gauges deliberately live only here, never in
 * the StatRegistry, so enabling metrics cannot change the bytes of
 * `--dump-stats` output or the JSON run report.
 *
 * On top of the registry, MetricsStreamer is the run's one periodic
 * sampler: at a fixed tick period it walks the registry and writes
 * one NDJSON line holding the metrics whose value changed since the
 * previous line (the timeline is the lines' summaries). Values are
 * pure functions of the simulation, names
 * are emitted in sorted order, and no wall-clock field is written
 * unless explicitly stamped (stampWall) — so for a given seed the
 * stream is byte-deterministic, modulo the optional top-level "wall"
 * key in the header line. A Prometheus-style text exposition writer
 * renders the same registry for scrape-style consumers
 * (docs/OBSERVABILITY.md).
 *
 * The registry exists only when ObsConfig::metricsEnabled(); with it
 * absent every hook in the simulator is a single null-pointer test,
 * the same discipline as the flight recorder.
 */

#ifndef WB_OBS_METRICS_HH
#define WB_OBS_METRICS_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace wb
{

/** What a metric measures and how it behaves over time. */
enum class MetricKind : std::uint8_t
{
    Counter,   //!< monotonic event count (streams its value)
    Gauge,     //!< instantaneous occupancy, polled (streams its value)
    Histogram, //!< latency distribution (streams its sample count)
};

/** Stable lower-case name of a metric kind. */
const char *metricKindName(MetricKind k);

/** Descriptor of one registered metric. */
struct MetricDesc
{
    std::string name;      //!< fully-qualified "component.stat"
    MetricKind kind = MetricKind::Counter;
    std::string unit;      //!< "" = dimensionless count
    std::string component; //!< name prefix up to the last '.'
};

/**
 * Machine-wide figures rolled up while walking a snapshot. Campaign
 * Telemetry frames carry the progress fields; the timeline is the
 * series of summaries taken at the periodic samples.
 */
struct MetricsSummary
{
    Tick tick = 0;
    std::uint64_t instructions = 0; //!< sum of core.*.commits
    std::uint64_t stores = 0;       //!< sum of core.*.stores
    std::uint64_t wbEntries = 0;    //!< sum of llc.*.writersBlockEntries
    // Occupancy gauges summed over components, then flit-hop running
    // totals per virtual network (`rollups` in metrics.cc names the
    // metrics behind each).
    std::uint64_t rob = 0, iq = 0, lq = 0, sq = 0, sb = 0;
    std::uint64_t lockdowns = 0, mshrs = 0, writebacks = 0, inFlight = 0;
    std::uint64_t flitHopsReq = 0, flitHopsFwd = 0, flitHopsResp = 0;
};

/** Visit the timeline columns of sample @p cur in CSV order as
 *  @p fn(Perfetto track name, value). The per-vnet flit columns are
 *  the flit-hops since @p prev (nullptr for the first sample). */
void forEachTimelineColumn(
    const MetricsSummary &cur, const MetricsSummary *prev,
    const std::function<void(const char *, std::uint64_t)> &fn);

/** Timeline CSV: a header line, then one row per sample. */
void writeTimelineCsv(std::ostream &os,
                      const std::vector<MetricsSummary> &samples);

/** Timeline JSON: {"period":N,"samples":[{...},...]}. */
void writeTimelineJson(std::ostream &os, Tick period,
                       const std::vector<MetricsSummary> &samples);

/**
 * The registry: a typed view over the System's StatRegistry plus the
 * gauges components registered. Read-only with respect to the stats
 * themselves; owns nothing but the gauge callbacks.
 */
class MetricsRegistry
{
  public:
    explicit MetricsRegistry(const StatRegistry *stats)
        : _stats(stats)
    {}

    /** Register a polled gauge under fully-qualified @p name. The
     *  callback must stay valid for the registry's lifetime. */
    void addGauge(const std::string &name, const std::string &unit,
                  std::function<std::uint64_t()> poll);

    /** Every metric (stats + gauges), sorted by name. */
    std::vector<MetricDesc> describe() const;

    /**
     * Current scalar value of every metric, sorted by name:
     * counters report their count, gauges their polled value,
     * histograms their sample count. When @p summary is non-null it
     * receives the rolled-up progress figures for this snapshot.
     */
    std::vector<std::pair<std::string, std::uint64_t>>
    values(MetricsSummary *summary = nullptr) const;

    /**
     * Prometheus text exposition (format 0.0.4) of current values:
     * "component.stat" becomes family "wb_stat" with a
     * component="..." label (plus unit="..." when labelled);
     * histograms render as summaries with quantile/_sum/_count
     * series. Families and series are emitted in sorted order, so
     * for a given simulation state the output is byte-deterministic.
     */
    void writeExposition(std::ostream &os) const;

    std::size_t gaugeCount() const { return _gauges.size(); }
    const StatRegistry *stats() const { return _stats; }

    /** Component label of a fully-qualified metric name. */
    static std::string componentOf(const std::string &name);

  private:
    struct Gauge
    {
        std::string unit;
        std::function<std::uint64_t()> poll;
    };

    /** @p fn(name, stat, gauge) per metric in name order; exactly
     *  one of stat and gauge is non-null. */
    template <typename Fn>
    void forEachMetric(Fn &&fn) const;

    const StatRegistry *_stats;
    std::map<std::string, Gauge> _gauges;
};

/**
 * Interval NDJSON snapshot stream over a MetricsRegistry.
 *
 * Line 1 (header):
 *   {"schema":"wb-metrics-1","period":P[,"wall":{...}],
 *    "metrics":[{"name":...,"kind":...,"unit":...,"component":...}]}
 * Data lines, tick-keyed, one per due period with changes:
 *   {"tick":T,"v":{"name":value,...}}
 * holding absolute values for exactly the metrics that changed since
 * the previous line (the first data line reports every non-zero
 * metric). Periods where nothing changed produce no line.
 *
 * Sinks: an owned stdio FILE (path or "fd:N" spec) and/or a frame
 * callback; both receive identical lines.
 */
class MetricsStreamer
{
  public:
    using FrameFn = std::function<void(const MetricsSummary &,
                                       const std::string &line)>;

    MetricsStreamer(const MetricsRegistry *reg, Tick period);
    ~MetricsStreamer();

    MetricsStreamer(const MetricsStreamer &) = delete;
    MetricsStreamer &operator=(const MetricsStreamer &) = delete;

    Tick period() const { return _period; }
    bool due(Tick cycle) const { return cycle % _period == 0; }

    /** Attach a FILE sink: a path, or "fd:N" to adopt a duplicate of
     *  an inherited descriptor. False (with @p err set) if the sink
     *  cannot be opened for writing. */
    bool openFile(const std::string &spec, std::string &err);

    /** Attach a frame callback sink (campaign telemetry, the
     *  timeline). */
    void setCallback(FrameFn fn) { _callback = std::move(fn); }

    /** A frame callback that keeps the timeline in @p rows: the
     *  summary of each periodic sample (every one writes a line, as
     *  core.N.cycles advances every cycle), not the header (tick 0)
     *  nor an end-of-run line off the period grid. */
    FrameFn
    timelineSink(std::vector<MetricsSummary> &rows) const
    {
        return [this, &rows](const MetricsSummary &f,
                             const std::string &) {
            if (f.tick != 0 && due(f.tick))
                rows.push_back(f);
        };
    }

    /** Stamp the wall clock into the header's top-level "wall" key.
     *  Never called for plain wbsim streams, which therefore stay
     *  fully byte-deterministic. */
    void stampWall(std::uint64_t unix_ms) { _wallMs = unix_ms; _hasWall = true; }

    /** Emit the header (first call) and one delta line for @p tick,
     *  unless @p tick was the last line's. Called at every periodic
     *  sample and once more at the end of the run, to capture any
     *  drift since the last sample. */
    void emit(Tick tick);

    std::uint64_t linesEmitted() const { return _lines; }

  private:
    void writeLine(const std::string &line, const MetricsSummary &sum);
    void emitHeader();

    const MetricsRegistry *_reg;
    Tick _period;
    std::FILE *_file = nullptr;
    FrameFn _callback;
    /** Values at the previous emit, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> _last;
    bool _headerDone = false;
    bool _emittedData = false;
    bool _hasWall = false;
    std::uint64_t _wallMs = 0;
    std::uint64_t _lines = 0;
    Tick _lastTick = ~Tick(0);
};

} // namespace wb

#endif // WB_OBS_METRICS_HH
