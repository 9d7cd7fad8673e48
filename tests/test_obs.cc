/**
 * @file
 * Observability-layer tests: flight-recorder ring semantics, latency
 * breakdown telescoping, timeline period math, Perfetto
 * export determinism, crash-report integration, and the stats/log
 * satellites (histogram percentiles, trace sink).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/perfetto.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "system/crash_report.hh"
#include "system/report.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"

namespace wb
{

namespace
{

/** 4-core litmus config with observability enabled: a flight
 *  recorder of @p ring events, a sampler every @p period cycles. */
SystemConfig
obsConfig(std::size_t ring, Tick period)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.setMode(CommitMode::OooWB);
    cfg.obs.flightRecorder = ring;
    cfg.obs.metricsPeriod = period;
    return cfg;
}

/** Keep @p sys's timeline in @p rows, the way wbsim --timeline
 *  does. */
void
keepTimeline(System &sys, std::vector<MetricsSummary> &rows)
{
    ASSERT_NE(sys.metricsStream(), nullptr);
    sys.metricsStream()->setCallback(
        sys.metricsStream()->timelineSink(rows));
}

} // namespace

// ---------------------------------------------------------------
// FlightRecorder ring semantics
// ---------------------------------------------------------------

TEST(FlightRecorder, RingWrapsAndKeepsTheNewestEvents)
{
    StatRegistry stats;
    FlightRecorder fr(&stats, 8);
    EXPECT_EQ(fr.capacity(), 8u);
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_TRUE(fr.tail().empty());

    for (Tick t = 1; t <= 20; ++t)
        fr.record(t, EvKind::Commit, EvUnit::Core, 0, 0, t);

    EXPECT_EQ(fr.recorded(), 20u);
    EXPECT_EQ(fr.size(), 8u);
    const auto all = fr.tail();
    ASSERT_EQ(all.size(), 8u);
    // The newest 8 of 20 events, oldest first: ticks 13..20.
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].tick, Tick(13 + i));
    EXPECT_EQ(stats.counterValue("obs.eventsOverwritten"), 12u);

    // A bounded tail takes from the newest end.
    const auto last3 = fr.tail(3);
    ASSERT_EQ(last3.size(), 3u);
    EXPECT_EQ(last3.front().tick, Tick(18));
    EXPECT_EQ(last3.back().tick, Tick(20));
}

TEST(FlightRecorder, OrderingSurvivesWraparound)
{
    StatRegistry stats;
    FlightRecorder fr(&stats, 16);
    // Interleave units and kinds; ticks strictly increase.
    for (Tick t = 1; t <= 100; ++t)
        fr.record(t, t % 2 ? EvKind::NetEnqueue : EvKind::NetDeliver,
                  EvUnit::VNet, int(t % 3), Addr(t * 64));
    const auto tail = fr.tail();
    ASSERT_EQ(tail.size(), 16u);
    for (std::size_t i = 1; i < tail.size(); ++i)
        EXPECT_LT(tail[i - 1].tick, tail[i].tick);
    EXPECT_EQ(tail.back().tick, Tick(100));
}

// ---------------------------------------------------------------
// Latency breakdown telescoping
// ---------------------------------------------------------------

TEST(FlightRecorder, BreakdownSegmentsSumToEndToEndLatency)
{
    StatRegistry stats;
    FlightRecorder fr(&stats, 64);

    // Full four-phase transaction.
    fr.txnBegin(100, 0, 0x1000, 'R');
    fr.txnDirSeen(110, 2, 0, 0x1000);
    fr.txnData(130, 0, 0x1000);
    fr.txnEnd(145, 0, 0x1000);

    // Missing dirSeen (e.g. stamp lost to a dropped request): the
    // segment collapses to zero, never goes negative.
    fr.txnBegin(200, 1, 0x2000, 'W');
    fr.txnData(230, 1, 0x2000);
    fr.txnEnd(260, 1, 0x2000);

    // GetU bypass on the same (core, line) as an open write must not
    // clobber the write's stamps.
    fr.txnBegin(300, 2, 0x3000, 'W');
    fr.txnBegin(305, 2, 0x3000, 'U', true);
    fr.txnEnd(315, 2, 0x3000, true);
    fr.txnData(320, 2, 0x3000);
    fr.txnEnd(330, 2, 0x3000);

    EXPECT_EQ(fr.txnLatency().samples(), 4u);
    EXPECT_EQ(fr.reqToDir().samples(), 4u);
    // Telescoping invariant: per construction the three segment sums
    // equal the end-to-end sum exactly.
    EXPECT_EQ(fr.reqToDir().sum() + fr.dirToData().sum() +
                  fr.dataToEnd().sum(),
              fr.txnLatency().sum());
    EXPECT_EQ(fr.txnLatency().sum(), 45u + 60u + 10u + 30u);
}

TEST(FlightRecorder, BreakdownTelescopesAcrossARealRun)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 200);
    System sys(obsConfig(1 << 14, 0), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    const FlightRecorder *fr = sys.flightRecorder();
    ASSERT_NE(fr, nullptr);
    EXPECT_GT(fr->txnLatency().samples(), 0u);
    EXPECT_EQ(fr->reqToDir().sum() + fr->dirToData().sum() +
                  fr->dataToEnd().sum(),
              fr->txnLatency().sum());
    // The histograms live in the System's registry under obs.*.
    EXPECT_NE(sys.stats().find("obs.txnLatency"), nullptr);
    EXPECT_NE(sys.stats().find("obs.lockdownHeld"), nullptr);
}

TEST(FlightRecorder, AbortDropsTheOpenTransaction)
{
    StatRegistry stats;
    FlightRecorder fr(&stats, 8);
    fr.txnBegin(10, 0, 0x40, 'R');
    fr.txnAbort(20, 0, 0x40);
    fr.txnEnd(30, 0, 0x40); // no open txn left: event only
    EXPECT_EQ(fr.txnLatency().samples(), 0u);
    EXPECT_EQ(fr.tail().back().kind, EvKind::TxnEnd);
}

// ---------------------------------------------------------------
// Timeline sampler
// ---------------------------------------------------------------

TEST(Timeline, PeriodMathAndRowCount)
{
    StatRegistry st;
    MetricsRegistry reg(&st);
    MetricsStreamer ms(&reg, 100);
    EXPECT_TRUE(ms.due(100));
    EXPECT_TRUE(ms.due(200));
    EXPECT_FALSE(ms.due(1));
    EXPECT_FALSE(ms.due(150));
    std::vector<MetricsSummary> rows;
    const auto sink = ms.timelineSink(rows);
    MetricsSummary frame;
    sink(frame, "");  // the header frame (tick 0)
    frame.tick = 150; // an off-grid closing line
    sink(frame, "");
    frame.tick = 200;
    sink(frame, "");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].tick, Tick(200));

    Workload wl = makeLitmus(LitmusKind::Table1, 50);
    System sys(obsConfig(0, 100), wl);
    rows.clear();
    keepTimeline(sys, rows);
    sys.step(1000);
    // Cycles 100, 200, ..., 1000: exactly ten samples.
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows.front().tick, Tick(100));
    EXPECT_EQ(rows.back().tick, Tick(1000));
}

TEST(Timeline, RowsAreRegistryRollups)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(obsConfig(0, 64), wl);
    sys.step(640);
    MetricsSummary sum;
    std::uint64_t rob = 0, locks = 0, mshrs = 0, resp = 0;
    for (const auto &[name, v] : sys.metrics()->values(&sum)) {
        if (name.starts_with("core.") && name.ends_with(".rob"))
            rob += v;
        else if (name.ends_with(".locksHeld"))
            locks += v;
        else if (name.ends_with(".mshrs"))
            mshrs += v;
        else if (name == "net.flitHopsResp")
            resp = v;
    }
    EXPECT_GT(rob, 0u);
    EXPECT_EQ(sum.rob, rob);
    EXPECT_EQ(sum.lockdowns, locks);
    EXPECT_EQ(sum.mshrs, mshrs);
    EXPECT_EQ(sum.flitHopsResp, resp);
    EXPECT_EQ(sum.inFlight, sys.network().inFlight());
}

TEST(Timeline, CsvAndJsonCarryEveryGaugeColumn)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(obsConfig(0, 64), wl);
    std::vector<MetricsSummary> rows;
    keepTimeline(sys, rows);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    ASSERT_FALSE(rows.empty());

    std::ostringstream csv;
    writeTimelineCsv(csv, rows);
    const std::string c = csv.str();
    EXPECT_EQ(c.compare(0, 5, "cycle"), 0);
    EXPECT_NE(c.find("lockdowns"), std::string::npos);
    EXPECT_NE(c.find("vnetRespFlits"), std::string::npos);
    // Header plus one line per sample.
    EXPECT_EQ(std::size_t(std::count(c.begin(), c.end(), '\n')),
              rows.size() + 1);

    std::ostringstream json;
    writeTimelineJson(json, 64, rows);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"period\":64"), std::string::npos);
    EXPECT_NE(j.find("\"vnetFlitHops\":["), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));
}

// ---------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------

TEST(Perfetto, TraceIsStructurallyValidJson)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(obsConfig(1 << 14, 0), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);

    std::ostringstream os;
    writePerfettoTrace(os, *sys.flightRecorder(), 4, 4);
    const std::string t = os.str();
    EXPECT_EQ(t.compare(0, 16, "{\"traceEvents\":["), 0);
    EXPECT_NE(t.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(t.find("\"process_name\""), std::string::npos);
    EXPECT_NE(t.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_EQ(std::count(t.begin(), t.end(), '{'),
              std::count(t.begin(), t.end(), '}'));
    EXPECT_EQ(std::count(t.begin(), t.end(), '['),
              std::count(t.begin(), t.end(), ']'));
}

TEST(Perfetto, ReplaysAreBitIdentical)
{
    auto render = []() {
        Workload wl = makeLitmus(LitmusKind::Table1, 150);
        System sys(obsConfig(1 << 14, 0), wl);
        SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        std::ostringstream os;
        writePerfettoTrace(os, *sys.flightRecorder(), 4, 4);
        return os.str();
    };
    const std::string a = render();
    const std::string b = render();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// Crash-report integration
// ---------------------------------------------------------------

TEST(CrashReport, CarriesTheFlightRecorderTail)
{
    // Drop the first coherence message: the per-transaction watchdog
    // escalates to a deadlock verdict and the crash report must end
    // with the recorder's black-box tail.
    Workload wl = makeLitmus(LitmusKind::Table1, 300);
    SystemConfig cfg = obsConfig(4096, 0);
    cfg.txnWarnCycles = 5'000;
    cfg.txnDeadlockCycles = 15'000;
    cfg.watchdogPollCycles = 256;
    cfg.maxCycles = 2'000'000;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("seed=1,drop=1.0:1", cfg.faults, err))
        << err;
    System sys(cfg, wl);
    const ClassifiedRun cr = runClassified(sys);
    ASSERT_EQ(cr.outcome, RunOutcome::Deadlock);

    std::ostringstream os;
    writeCrashReport(os, sys, cr.verdict, cr.detail);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"flightRecorder\":{"), std::string::npos);
    EXPECT_NE(j.find("\"tail\":["), std::string::npos);
    // The surviving cores' final retirements are the last activity
    // before the machine wedges, so they must be in the tail.
    EXPECT_NE(j.find("\"kind\":\"commit\""), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
}

TEST(CrashReport, OmitsRecorderWhenDisabled)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 20);
    SystemConfig cfg = obsConfig(0, 0);
    System sys(cfg, wl);
    sys.run();
    std::ostringstream os;
    writeCrashReport(os, sys, "deadlock", "test");
    EXPECT_EQ(os.str().find("\"flightRecorder\""),
              std::string::npos);
}

// ---------------------------------------------------------------
// Histogram percentiles (stats satellite)
// ---------------------------------------------------------------

TEST(HistogramPercentiles, EmptyHistogramIsAllZero)
{
    Histogram h("t");
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

TEST(HistogramPercentiles, BucketUpperBoundsClampedToMax)
{
    Histogram h("t");
    for (int i = 0; i < 99; ++i)
        h.sample(10); // bucket [8,16) -> upper bound 15
    h.sample(1000);   // bucket [512,1024) -> clamped to max
    EXPECT_EQ(h.p50(), 15u);
    EXPECT_EQ(h.p95(), 15u);
    EXPECT_EQ(h.percentile(100), 1000u);
    EXPECT_EQ(h.percentile(0), 10u);
    EXPECT_EQ(h.minValue(), 10u);

    Histogram z("z");
    z.sample(0);
    z.sample(0);
    EXPECT_EQ(z.p50(), 0u);
    EXPECT_EQ(z.maxValue(), 0u);

    // print() now carries the percentile summary.
    std::ostringstream os;
    h.print(os);
    EXPECT_NE(os.str().find("p95="), std::string::npos);
}

TEST(HistogramPercentiles, SingleSampleIsEveryPercentile)
{
    Histogram h("t");
    h.sample(37); // bucket [32,64): upper bound clamps to max=37
    EXPECT_EQ(h.percentile(0), 37u);
    EXPECT_EQ(h.p50(), 37u);
    EXPECT_EQ(h.p99(), 37u);
    EXPECT_EQ(h.percentile(100), 37u);
    EXPECT_EQ(h.minValue(), 37u);
    EXPECT_EQ(h.maxValue(), 37u);
}

TEST(HistogramPercentiles, OutOfRangePercentilesClampToEndpoints)
{
    Histogram h("t");
    h.sample(4);
    h.sample(400);
    EXPECT_EQ(h.percentile(-5), 4u);
    EXPECT_EQ(h.percentile(250), 400u);
}

TEST(HistogramPercentiles, HugeSamplesSaturateIntoTheLastBucket)
{
    // With 4 buckets every value >= 8 saturates into the final
    // bucket, whose inclusive upper bound is 2^3 - 1 = 7: counts
    // are never lost (samples/sum/max stay exact) but percentiles
    // read from a saturated bucket report the bucket bound, so
    // they under-report. min/max and p0 remain exact.
    Histogram h("t", 4);
    h.sample(1);
    h.sample(std::uint64_t(1) << 40);
    h.sample(std::uint64_t(1) << 41);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.sum(), 1u + (std::uint64_t(1) << 40) +
                           (std::uint64_t(1) << 41));
    EXPECT_EQ(h.maxValue(), std::uint64_t(1) << 41);
    EXPECT_EQ(h.percentile(0), 1u);
    EXPECT_EQ(h.p50(), 7u);
    EXPECT_EQ(h.p99(), 7u);
    EXPECT_EQ(h.percentile(100), 7u);
}

// ---------------------------------------------------------------
// Metrics registry (tentpole)
// ---------------------------------------------------------------

namespace
{

/** 4-core litmus config with the metrics registry enabled. */
SystemConfig
metricsConfig(Tick period)
{
    SystemConfig cfg = obsConfig(0, period);
    cfg.obs.metrics = period == 0;
    return cfg;
}

} // namespace

TEST(Metrics, OffByDefaultAndInvisibleToReports)
{
    // Same seed with the registry on: simulated results and the
    // stats dump must be byte-identical — gauges never enter the
    // StatRegistry, so reports cannot see the metrics layer. Two
    // inputs: table1 with the registry on but no stream, and the
    // paper's 16-core machine on fft streaming a snapshot every 10k
    // cycles into a callback sink.
    SystemConfig paper;
    paper.core = makeCoreConfig(CoreClass::SLM);
    paper.checker = false;
    paper.setMode(CommitMode::OooWB);
    SystemConfig streaming = paper;
    streaming.obs.metricsPeriod = 10'000;
    const struct
    {
        Workload wl;
        SystemConfig off, on;
    } cases[] = {
        {makeLitmus(LitmusKind::Table1, 100), obsConfig(0, 0),
         metricsConfig(0)},
        {makeBenchmark("fft", 16, 0.05), paper, streaming},
    };

    for (const auto &c : cases) {
        SCOPED_TRACE(c.wl.name);
        System plain(c.off, c.wl);
        EXPECT_EQ(plain.metrics(), nullptr);
        EXPECT_EQ(plain.metricsStream(), nullptr);
        const SimResults rp = plain.run();
        EXPECT_TRUE(rp.completed);

        const bool streams = c.on.obs.metricsPeriod > 0;
        System on(c.on, c.wl);
        ASSERT_NE(on.metrics(), nullptr);
        EXPECT_EQ(on.metricsStream() != nullptr, streams);
        std::uint64_t lines = 0;
        if (on.metricsStream())
            on.metricsStream()->setCallback(
                [&lines](const MetricsSummary &, const std::string &) {
                    ++lines;
                });
        const SimResults ro = on.run();
        EXPECT_EQ(lines > 0, streams) << lines << " snapshot lines";

        std::ostringstream rep, reo, dp, doo;
        writeJsonReport(rep, c.wl.name, c.off, rp, nullptr);
        writeJsonReport(reo, c.wl.name, c.off, ro, nullptr);
        EXPECT_EQ(rep.str(), reo.str());
        plain.stats().dump(dp);
        on.stats().dump(doo);
        EXPECT_EQ(dp.str(), doo.str());
    }
}

TEST(Metrics, RegistryDescribesTypedSortedMetrics)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 50);
    System sys(metricsConfig(0), wl);
    const MetricsRegistry *m = sys.metrics();
    ASSERT_NE(m, nullptr);
    EXPECT_GT(m->gaugeCount(), 0u);

    const auto descs = m->describe();
    ASSERT_GT(descs.size(), m->gaugeCount());
    bool sawCounter = false, sawGauge = false, sawHisto = false;
    bool sawUnit = false;
    for (std::size_t i = 0; i < descs.size(); ++i) {
        if (i) {
            EXPECT_LT(descs[i - 1].name, descs[i].name);
        }
        EXPECT_EQ(descs[i].component,
                  MetricsRegistry::componentOf(descs[i].name));
        sawCounter |= descs[i].kind == MetricKind::Counter;
        sawGauge |= descs[i].kind == MetricKind::Gauge;
        sawHisto |= descs[i].kind == MetricKind::Histogram;
        if (descs[i].name == "core.0.commits") {
            EXPECT_EQ(descs[i].unit, "instructions");
            sawUnit = true;
        }
    }
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawGauge);
    EXPECT_TRUE(sawHisto);
    EXPECT_TRUE(sawUnit);
    EXPECT_EQ(MetricsRegistry::componentOf("l1.3.mshrs"), "l1.3");
    EXPECT_EQ(MetricsRegistry::componentOf("flat"), "");
}

TEST(Metrics, SummaryRollsUpCoreCounters)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(metricsConfig(0), wl);
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    MetricsSummary sum;
    sys.metrics()->values(&sum);
    // The roll-up is scoped to core.* counters (l1.N.stores etc.
    // must not double-count).
    std::uint64_t commits = 0, stores = 0;
    for (int i = 0; i < 4; ++i) {
        const std::string c = "core." + std::to_string(i);
        commits += sys.stats().counterValue(c + ".commits");
        stores += sys.stats().counterValue(c + ".stores");
    }
    EXPECT_EQ(sum.instructions, commits);
    EXPECT_EQ(sum.stores, stores);
    EXPECT_GT(sum.instructions, 0u);
    EXPECT_LT(sum.stores, sys.stats().sumCounters("stores"));
}

TEST(Metrics, StreamIsDeltaEncodedAndDeterministic)
{
    auto capture = [](std::vector<std::string> &lines) {
        Workload wl = makeLitmus(LitmusKind::Table1, 100);
        System sys(metricsConfig(500), wl);
        MetricsStreamer *ms = sys.metricsStream();
        EXPECT_NE(ms, nullptr);
        ms->setCallback([&lines](const MetricsSummary &,
                                 const std::string &line) {
            lines.push_back(line);
        });
        const SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(ms->linesEmitted(), lines.size());
    };
    std::vector<std::string> a, b;
    capture(a);
    capture(b);
    ASSERT_GE(a.size(), 3u); // header + >= 2 data lines
    EXPECT_EQ(a, b);         // byte-deterministic for a fixed seed

    // Header: schema + descriptor array, no wall key (never stamped
    // by the simulator itself).
    EXPECT_EQ(a[0].compare(0, 24, "{\"schema\":\"wb-metrics-1\""),
              0);
    EXPECT_NE(a[0].find("\"period\":500"), std::string::npos);
    EXPECT_EQ(a[0].find("\"wall\""), std::string::npos);
    EXPECT_NE(a[0].find("\"kind\":\"gauge\""), std::string::npos);

    // Data lines are tick-keyed and strictly tick-ordered.
    Tick prev = 0;
    for (std::size_t i = 1; i < a.size(); ++i) {
        ASSERT_EQ(a[i].compare(0, 8, "{\"tick\":"), 0) << a[i];
        const Tick t = Tick(std::strtoull(a[i].c_str() + 8,
                                          nullptr, 10));
        EXPECT_GT(t, prev);
        prev = t;
    }
    // Delta encoding: a metric that froze after the first snapshot
    // drops out of later lines. The gauges all read 0 once the
    // machine drains, so the final line must not repeat every
    // metric the first data line carried.
    EXPECT_NE(a[1], a.back());
}

TEST(Metrics, StreamerSkipsUnchangedPeriodsAndDuplicateTicks)
{
    StatRegistry st;
    StatGroup g(&st, "unit");
    Counter &c = g.counter("events");
    MetricsRegistry reg(&st);
    MetricsStreamer ms(&reg, 10);
    std::vector<std::string> lines;
    ms.setCallback([&lines](const MetricsSummary &,
                            const std::string &line) {
        lines.push_back(line);
    });

    ++c;
    ms.emit(10); // header + first data line
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[1].find("\"unit.events\":1"),
              std::string::npos);

    ms.emit(20); // nothing changed: no line
    EXPECT_EQ(lines.size(), 2u);

    c += 2;
    ms.emit(30);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[2].find("{\"tick\":30,\"v\":{\"unit.events\":3}}"),
              std::string::npos);

    ms.emit(30); // same tick (end of run): no duplicate line
    EXPECT_EQ(lines.size(), 3u);
    EXPECT_EQ(ms.linesEmitted(), 3u);
}

TEST(Metrics, WallStampLivesInASeparateHeaderKey)
{
    StatRegistry st;
    MetricsRegistry reg(&st);
    MetricsStreamer ms(&reg, 10);
    std::vector<std::string> lines;
    ms.setCallback([&lines](const MetricsSummary &,
                            const std::string &line) {
        lines.push_back(line);
    });
    ms.stampWall(1234567);
    ms.emit(0); // end of run: header only
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find("\"wall\":{\"startedUnixMs\":1234567}"),
              std::string::npos);
}

TEST(Metrics, ExpositionIsDeterministicProm)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(metricsConfig(0), wl);
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed);

    std::ostringstream a, b;
    sys.metrics()->writeExposition(a);
    sys.metrics()->writeExposition(b);
    EXPECT_EQ(a.str(), b.str());

    const std::string s = a.str();
    EXPECT_NE(s.find("# TYPE wb_commits counter"),
              std::string::npos);
    EXPECT_NE(s.find("wb_commits{component=\"core.0\","
                     "unit=\"instructions\"}"),
              std::string::npos);
    EXPECT_NE(s.find("# TYPE wb_rob gauge"), std::string::npos);
    // Histograms render as summaries with quantile series.
    EXPECT_NE(s.find("quantile=\"0.99\""), std::string::npos);
    EXPECT_NE(s.find("_count{"), std::string::npos);
}

TEST(Perfetto, TimelineGaugesExportAsCounterTracks)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    SystemConfig cfg = obsConfig(1 << 12, 64);
    System sys(cfg, wl);
    std::vector<MetricsSummary> rows;
    keepTimeline(sys, rows);
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed);

    std::ostringstream os;
    writePerfettoTrace(os, *sys.flightRecorder(), 4, 4, rows);
    const std::string t = os.str();
    EXPECT_NE(t.find("\"occupancy gauges\""), std::string::npos);
    EXPECT_NE(t.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(t.find("\"name\":\"rob\""), std::string::npos);
    EXPECT_NE(t.find("\"name\":\"flits resp\""), std::string::npos);
    EXPECT_EQ(std::count(t.begin(), t.end(), '{'),
              std::count(t.begin(), t.end(), '}'));

    // Without a timeline the trace must not mention the gauge group.
    std::ostringstream plain;
    writePerfettoTrace(plain, *sys.flightRecorder(), 4, 4);
    EXPECT_EQ(plain.str().find("occupancy gauges"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Trace sink (log satellite)
// ---------------------------------------------------------------

TEST(TraceSink, RedirectsThisThreadsTraceLines)
{
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    Trace::setSink(tmp);
    EXPECT_EQ(Trace::sink(), tmp);
    Trace::printLine(42, "unit", "hello %d", 7);
    Trace::setSink(nullptr);
    EXPECT_EQ(Trace::sink(), stderr);

    std::fflush(tmp);
    std::rewind(tmp);
    char buf[128] = {0};
    ASSERT_NE(std::fgets(buf, sizeof(buf), tmp), nullptr);
    const std::string line = buf;
    EXPECT_NE(line.find("42"), std::string::npos);
    EXPECT_NE(line.find("unit"), std::string::npos);
    EXPECT_NE(line.find("hello 7"), std::string::npos);
    std::fclose(tmp);
}

} // namespace wb
