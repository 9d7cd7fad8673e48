/**
 * @file
 * Cross-shard determinism (docs/PARALLEL.md).
 *
 * The sharded engine's contract is absolute: for any workload and
 * any shard count, the simulation — results, every raw counter, the
 * JSON report — is byte-identical to the single-shard run. These
 * tests sweep every litmus plus three synthetic profiles across
 * shards {1, 2, 4} and diff the full counter-bearing JSON reports
 * and the metrics sampler's outputs, then exercise the SPSC ring the
 * shards communicate through with a two-thread randomized run
 * against a reference model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "sim/rng.hh"
#include "sim/spsc_queue.hh"
#include "system/report.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"

namespace wb
{

namespace
{

/** Full-fidelity witness of one run: the counter-bearing JSON
 *  report plus the executed-event count (which the report omits). */
struct RunWitness
{
    std::string json;
    std::uint64_t events = 0;
    bool completed = false;
};

RunWitness
runSharded(const Workload &wl, SystemConfig cfg, int shards)
{
    cfg.shards = shards;
    System sys(cfg, wl);
    const SimResults r = sys.run();
    RunWitness w;
    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &sys.stats());
    w.json = os.str();
    w.events = sys.eventsExecuted();
    w.completed = r.completed;
    return w;
}

/** Diff a workload across shard counts 1, 2, 4 on @p cfg. */
void
expectShardInvariant(const Workload &wl, const SystemConfig &cfg,
                     const std::string &label)
{
    const RunWitness base = runSharded(wl, cfg, 1);
    ASSERT_TRUE(base.completed) << label;
    for (int shards : {2, 4}) {
        const RunWitness w = runSharded(wl, cfg, shards);
        EXPECT_EQ(base.json, w.json)
            << label << ": report diverged at shards=" << shards;
        EXPECT_EQ(base.events, w.events)
            << label << ": event count diverged at shards="
            << shards;
    }
}

SystemConfig
litmusConfig(NetworkKind nk)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.network = nk;
    cfg.ideal.numNodes = 4;
    cfg.ideal.baseLatency = 8;
    cfg.ideal.jitter = 12;
    cfg.maxCycles = 30'000'000;
    cfg.setMode(CommitMode::OooWB);
    return cfg;
}

} // namespace

TEST(ShardDeterminism, EveryLitmusEveryNetwork)
{
    constexpr LitmusKind kinds[] = {
        LitmusKind::Table1,     LitmusKind::Table3,
        LitmusKind::StoreBuffer, LitmusKind::StoreBufferFenced,
        LitmusKind::LoadBuffer, LitmusKind::CoRR,
        LitmusKind::Iriw,
    };
    for (NetworkKind nk : {NetworkKind::Mesh, NetworkKind::Ideal})
        for (LitmusKind k : kinds) {
            const Workload wl = makeLitmus(k, 400);
            expectShardInvariant(
                wl, litmusConfig(nk),
                std::string(litmusName(k)) +
                    (nk == NetworkKind::Mesh ? "/mesh" : "/ideal"));
        }
}

TEST(ShardDeterminism, SyntheticProfiles)
{
    // Three contrasting sharing patterns; 16 cores so shards 2 and
    // 4 both split the mesh into multi-tile partitions.
    for (const char *name : {"fft", "ocean_ncp", "radix"}) {
        SyntheticParams p = benchmarkProfile(name, 0.05);
        const Workload wl = makeSynthetic(p, 16);
        SystemConfig cfg;
        cfg.numCores = 16;
        cfg.core = makeCoreConfig(CoreClass::SLM);
        cfg.maxCycles = 100'000'000;
        cfg.setMode(CommitMode::OooWB);
        expectShardInvariant(wl, cfg, name);
    }
}

namespace
{

/** Everything the metrics sampler writes for one run: the NDJSON
 *  stream, the timeline CSV and the end-of-run exposition, plus the
 *  run's report. */
std::string
observeSharded(const Workload &wl, SystemConfig cfg, int shards,
               Tick period)
{
    cfg.shards = shards;
    cfg.obs.metricsPeriod = period;
    System sys(cfg, wl);
    MetricsStreamer *ms = sys.metricsStream();
    std::string stream;
    std::vector<MetricsSummary> rows;
    const auto keep = ms->timelineSink(rows);
    ms->setCallback([&](const MetricsSummary &frame,
                        const std::string &line) {
        stream += line + '\n';
        keep(frame, line);
    });
    const SimResults r = sys.run();
    EXPECT_TRUE(r.completed);
    std::ostringstream os;
    os << stream;
    writeTimelineCsv(os, rows);
    sys.metrics()->writeExposition(os);
    writeJsonReport(os, wl.name, cfg, r, &sys.stats());
    return os.str();
}

} // namespace

TEST(ShardDeterminism, SamplerOutputsAreShardInvariant)
{
    // The sampler runs on the barrier thread with every shard
    // parked. Period 3 is shorter than the 6-cycle mesh epoch, so
    // most samples fall inside an epoch and park without a commit.
    const Workload wl = makeSynthetic(benchmarkProfile("fft", 0.02), 16);
    SystemConfig cfg;
    cfg.numCores = 16;
    cfg.core = makeCoreConfig(CoreClass::SLM);
    cfg.setMode(CommitMode::OooWB);
    for (Tick period : {Tick(3), Tick(100)}) {
        const std::string base = observeSharded(wl, cfg, 1, period);
        for (int shards : {2, 4})
            EXPECT_EQ(base, observeSharded(wl, cfg, shards, period))
                << "period " << period << ", shards " << shards;
    }
}

TEST(ShardDeterminism, CheckerSeesIdenticalHistory)
{
    // With the checker on, the per-tile taps replay into one global
    // TsoChecker at each barrier; a cross-shard ordering bug shows
    // up as a phantom violation (or a masked real one). IRIW is the
    // sharpest four-party ordering probe we have.
    const Workload wl = makeLitmus(LitmusKind::Iriw, 600);
    for (NetworkKind nk :
         {NetworkKind::Mesh, NetworkKind::Ideal}) {
        SystemConfig cfg = litmusConfig(nk);
        cfg.checker = true;
        expectShardInvariant(wl, cfg, "iriw+checker");
    }
}

// ------------------------------------------------------------ SPSC

TEST(SpscQueue, TwoThreadStreamMatchesReference)
{
    struct Item
    {
        std::uint64_t seq;
        std::uint64_t payload;
    };
    // Small block capacity forces frequent block handoff, the part
    // of the ring most likely to hide a publication race.
    SpscQueue<Item, 8> q;
    constexpr std::uint64_t kItems = 200'000;

    std::thread producer([&q] {
        Rng rng(42);
        for (std::uint64_t i = 0; i < kItems; ++i) {
            q.push(Item{i, rng.next()});
            if ((i & 1023) == 0)
                std::this_thread::yield();
        }
    });

    // Consumer: interleave pop() and drain() so both consumption
    // paths are exercised against the reference model.
    Rng ref(42);
    std::uint64_t expect = 0;
    auto check = [&](const Item &it) {
        ASSERT_EQ(it.seq, expect);
        ASSERT_EQ(it.payload, ref.next());
        ++expect;
    };
    while (expect < kItems) {
        Item it;
        if ((expect & 1) != 0 && q.pop(it)) {
            check(it);
            continue;
        }
        q.drain([&](Item &&v) { check(v); });
        if (expect < kItems)
            std::this_thread::yield();
    }
    producer.join();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(expect, kItems);
}

TEST(SpscQueue, DrainAfterProducerExit)
{
    // Everything pushed before the producer thread exits must be
    // visible to a consumer that starts afterwards.
    SpscQueue<std::uint64_t, 8> q;
    std::thread producer([&q] {
        for (std::uint64_t i = 0; i < 1000; ++i)
            q.push(i);
    });
    producer.join();
    std::uint64_t expect = 0;
    q.drain([&](std::uint64_t &&v) { EXPECT_EQ(v, expect++); });
    EXPECT_EQ(expect, 1000u);
    EXPECT_TRUE(q.empty());
}

} // namespace wb
