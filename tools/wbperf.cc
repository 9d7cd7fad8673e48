/**
 * @file
 * wbperf — the repo's performance baseline harness.
 *
 * Runs a FIXED matrix of cells (three component micro-loops plus the
 * fig8 benchmark sweep: every profile x {SLM, NHM, HSW} in OooWB
 * mode) and records, per cell, wall-clock seconds, executed event
 * count and a 64-bit FNV-1a fingerprint over the simulated stats.
 * The fingerprints depend only on simulated behaviour — never on
 * wall-clock — so two builds that simulate identically produce
 * identical fingerprints regardless of how fast they run.
 *
 * Workflow (docs/PERFORMANCE.md):
 *
 *   wbperf --out base.json                 # capture a baseline
 *   ... change the simulator ...
 *   wbperf --out new.json --check base.json [--max-regress 0.25]
 *
 * --check fails (exit 1) on any fingerprint mismatch (the change
 * altered simulated behaviour) and, when --max-regress is given, on
 * total wall-clock exceeding baseline * (1 + max-regress). Speedups
 * are reported, never failed on.
 *
 * Output schema "wb-perf-1" (compact JSON, fixed key order):
 *   { schema, bench, scale, cells:[{name, kind, wallSeconds,
 *     events, eventsPerSec, fingerprint}...], totalWallSeconds,
 *     totalEvents, eventsPerSec, peakRssKb,
 *     baselineWallSeconds?, speedup? }
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "coherence/messages.hh"
#include "network/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/parse.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "system/json_writer.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"

namespace
{

using namespace wb;

// ---------------------------------------------------------------- fp

/** FNV-1a 64 accumulator over integer stat fields. */
struct Fingerprint
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    std::string
    str() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/** Fingerprint the simulated (never wall-clock) outcome of a run.
 *  Field order is part of the fingerprint contract — append only. */
std::uint64_t
fingerprintResults(const SimResults &r)
{
    Fingerprint fp;
    fp.mix(r.completed);
    fp.mix(r.deadlocked);
    fp.mix(r.cycles);
    fp.mix(r.instructions);
    fp.mix(r.loads);
    fp.mix(r.stores);
    fp.mix(r.atomics);
    fp.mix(r.flitHops);
    fp.mix(r.messages);
    fp.mix(r.wbEntries);
    fp.mix(r.wbEncounters);
    fp.mix(r.uncacheableReads);
    fp.mix(r.nacksSent);
    fp.mix(r.ackReleases);
    fp.mix(r.lockdownsSet);
    fp.mix(r.ldtExports);
    fp.mix(r.oooCommits);
    fp.mix(r.squashBranch);
    fp.mix(r.squashDspec);
    fp.mix(r.squashInv);
    fp.mix(r.stallRob);
    fp.mix(r.stallLq);
    fp.mix(r.stallSq);
    fp.mix(r.coreCycles);
    return fp.h;
}

// ------------------------------------------------------------- cells

struct CellResult
{
    std::string name;
    std::string kind; //!< "micro" | "fig"
    double wallSeconds = 0;
    std::uint64_t events = 0;
    std::uint64_t fingerprint = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Mirror of bench/micro_components BM_EventQueueScheduleRun: the
 *  scheduling/dispatch loop with a mix of same-tick and near-future
 *  events, heavy on insert/extract-min. */
CellResult
microEventQueue()
{
    CellResult c{"micro.event_queue", "micro"};
    const auto t0 = std::chrono::steady_clock::now();
    EventQueue eq;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 150'000; ++rep) {
        for (int i = 0; i < 64; ++i)
            eq.scheduleIn(std::uint64_t(i % 7), [&sink] { ++sink; });
        eq.runUntil(eq.now() + 8);
    }
    eq.runAll();
    c.wallSeconds = secondsSince(t0);
    c.events = eq.executed();
    Fingerprint fp;
    fp.mix(sink);
    fp.mix(eq.executed());
    fp.mix(eq.now());
    c.fingerprint = fp.h;
    return c;
}

/** Mirror of BM_MeshSend: routed hop-by-hop delivery through the
 *  4x4 mesh, exercising per-hop event scheduling. */
CellResult
microMeshSend()
{
    CellResult c{"micro.mesh_send", "micro"};
    const auto t0 = std::chrono::steady_clock::now();
    EventQueue eq;
    StatRegistry st;
    MeshNetwork net("net", &eq, &st, MeshConfig{});
    std::uint64_t delivered = 0;
    for (int i = 0; i < 16; ++i)
        net.registerNode(i, [&delivered](MsgPtr) { ++delivered; });
    Rng rng(3);
    for (int i = 0; i < 300'000; ++i) {
        auto m = std::make_shared<NetMsg>();
        m->src = int(rng.below(16));
        m->dst = int(rng.below(16));
        m->flits = 5;
        net.send(std::move(m), eq.now());
        if ((i & 4095) == 4095)
            net.drain(eq);
    }
    net.drain(eq);
    c.wallSeconds = secondsSince(t0);
    c.events = eq.executed();
    Fingerprint fp;
    fp.mix(delivered);
    fp.mix(eq.executed());
    fp.mix(eq.now());
    c.fingerprint = fp.h;
    return c;
}

/** Allocation churn of the coherence hot path: makeCohMsg with a
 *  small live window, the per-hop pattern the LLC and L1s produce. */
CellResult
microCohMsgAlloc()
{
    CellResult c{"micro.coh_msg_alloc", "micro"};
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int window = 64;
    std::vector<MsgPtr> live(window);
    Rng rng(7);
    std::uint64_t acc = 0;
    const int iters = 10'000'000;
    for (int i = 0; i < iters; ++i) {
        const Addr line = lineOf(rng.next() % (1 << 22));
        MsgPtr m = makeCohMsg(CohType::Data, line,
                              int(rng.below(16)),
                              int(rng.below(16)));
        acc += static_cast<CohMsg &>(*m).line + std::uint64_t(m->dst);
        live[std::size_t(i % window)] = std::move(m);
    }
    live.clear();
    c.wallSeconds = secondsSince(t0);
    c.events = iters;
    Fingerprint fp;
    fp.mix(acc);
    c.fingerprint = fp.h;
    return c;
}

std::string fpString(std::uint64_t h);

/** The paper's 16-core machine (bench/bench_common.hh paperConfig)
 *  in OooWB mode, checker off. */
SystemConfig
paperConfig(CoreClass cls)
{
    SystemConfig cfg;
    cfg.core = makeCoreConfig(cls);
    cfg.checker = false;
    cfg.maxCycles = 400'000'000;
    cfg.setMode(CommitMode::OooWB);
    return cfg;
}

/** Metrics guard: the same small benchmark with the metrics
 *  registry + snapshot streaming on vs off must simulate (and
 *  fingerprint) identically — the telemetry layer observes, never
 *  perturbs. A divergence is a hard failure (exit 1), independent
 *  of any --check baseline; this is how the perf-smoke gate proves
 *  the metrics-disabled contract. The reported cell timing is the
 *  metrics-ON run, so a baseline diff also shows the overhead. */
CellResult
microMetrics(double scale)
{
    CellResult c{"micro.metrics", "micro"};
    const std::string bench = "fft";
    Workload wl = makeBenchmark(bench, 16, scale);
    SystemConfig cfg = paperConfig(CoreClass::SLM);

    std::uint64_t fpOff = 0;
    {
        System sys(cfg, wl);
        fpOff = fingerprintResults(sys.run());
    }

    cfg.obs.metricsPeriod = 10'000;
    const auto t0 = std::chrono::steady_clock::now();
    System sys(cfg, wl);
    std::uint64_t lines = 0;
    if (sys.metricsStream())
        sys.metricsStream()->setCallback(
            [&lines](const MetricsSummary &, const std::string &) {
                ++lines;
            });
    const SimResults r = sys.run();
    c.wallSeconds = secondsSince(t0);
    c.events = sys.eventsExecuted();
    c.fingerprint = fingerprintResults(r);
    if (c.fingerprint != fpOff) {
        std::fprintf(stderr,
                     "wbperf: METRICS PERTURBATION %s: fingerprint "
                     "%s with metrics off vs %s with metrics on\n",
                     c.name.c_str(), fpString(fpOff).c_str(),
                     fpString(c.fingerprint).c_str());
        std::exit(1);
    }
    if (lines == 0) {
        std::fprintf(stderr, "wbperf: %s streamed no snapshot "
                             "lines; the metrics hook is dead\n",
                     c.name.c_str());
        std::exit(1);
    }
    return c;
}

/** One fig8 cell: a benchmark profile on paperConfig(). */
CellResult
figCell(const std::string &name, CoreClass cls, double scale,
        int shards)
{
    CellResult c{"fig8." + name + "." + coreClassName(cls), "fig"};
    Workload wl = makeBenchmark(name, 16, scale);
    SystemConfig cfg = paperConfig(cls);
    // Sharding must never move a fingerprint — the cell name stays
    // the same on purpose, so a --check against a single-shard
    // baseline is exactly the determinism gate from docs/PARALLEL.md.
    cfg.shards = shards;

    const auto t0 = std::chrono::steady_clock::now();
    System sys(cfg, wl);
    const SimResults r = sys.run();
    c.wallSeconds = secondsSince(t0);
    c.events = sys.eventsExecuted();
    c.fingerprint = fingerprintResults(r);
    if (!r.completed) {
        std::fprintf(stderr,
                     "wbperf: cell %s did not complete (%s)\n",
                     c.name.c_str(), r.deadlockReason.c_str());
        std::exit(3);
    }
    return c;
}

// ----------------------------------------------------------- output

std::string
fpString(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

long
peakRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

void
writeReport(std::ostream &os, const std::vector<CellResult> &cells,
            double scale, double baselineWall)
{
    double total = 0;
    std::uint64_t events = 0;
    for (const CellResult &c : cells) {
        total += c.wallSeconds;
        events += c.events;
    }
    JsonWriter w(os);
    w.openObject();
    w.field("schema", std::string("wb-perf-1"));
    w.field("bench", std::uint64_t(10));
    w.field("scale", scale);
    w.openArray("cells");
    for (const CellResult &c : cells) {
        w.openObject();
        w.field("name", c.name);
        w.field("kind", c.kind);
        w.field("wallSeconds", c.wallSeconds);
        w.field("events", c.events);
        w.field("eventsPerSec",
                c.wallSeconds > 0 ? double(c.events) / c.wallSeconds
                                  : 0.0);
        w.field("fingerprint", fpString(c.fingerprint));
        w.closeObject();
    }
    w.closeArray();
    w.field("totalWallSeconds", total);
    w.field("totalEvents", events);
    w.field("eventsPerSec",
            total > 0 ? double(events) / total : 0.0);
    w.field("peakRssKb", std::uint64_t(peakRssKb()));
    if (baselineWall > 0) {
        w.field("baselineWallSeconds", baselineWall);
        w.field("speedup", total > 0 ? baselineWall / total : 0.0);
    }
    w.closeObject();
    os << '\n';
}

// --------------------------------------------------- baseline check

/** Naive scanner for our own fixed-order compact JSON: extracts the
 *  per-cell name -> fingerprint map and totalWallSeconds. Good
 *  enough because wbperf is the only producer of this schema. */
struct Baseline
{
    std::vector<std::pair<std::string, std::string>> fingerprints;
    double totalWallSeconds = -1;

    const std::string *
    find(const std::string &name) const
    {
        for (const auto &[n, f] : fingerprints)
            if (n == name)
                return &f;
        return nullptr;
    }
};

bool
loadBaseline(const std::string &path, Baseline &out)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string s = ss.str();
    if (s.find("\"schema\":\"wb-perf-1\"") == std::string::npos)
        return false;

    std::size_t pos = 0;
    while ((pos = s.find("\"name\":\"", pos)) != std::string::npos) {
        pos += 8;
        const std::size_t ne = s.find('"', pos);
        if (ne == std::string::npos)
            return false;
        const std::string name = s.substr(pos, ne - pos);
        const std::size_t fpk = s.find("\"fingerprint\":\"", ne);
        if (fpk == std::string::npos)
            return false;
        const std::size_t fs = fpk + 15;
        const std::size_t fe = s.find('"', fs);
        if (fe == std::string::npos)
            return false;
        out.fingerprints.emplace_back(name,
                                      s.substr(fs, fe - fs));
        pos = fe;
    }
    const std::size_t tk = s.find("\"totalWallSeconds\":");
    if (tk != std::string::npos)
        out.totalWallSeconds =
            std::strtod(s.c_str() + tk + 19, nullptr);
    return !out.fingerprints.empty();
}

// ------------------------------------------------------------- main

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--out FILE] [--check BASELINE.json]\n"
        "          [--max-regress FRAC] [--scale F] [--shards N]\n"
        "          [--micro-only | --fig-only] [--quiet]\n"
        "\n"
        "Runs the fixed micro + fig8 perf matrix, writes a\n"
        "wb-perf-1 JSON report (default BENCH_10.json), and with\n"
        "--check compares simulated-stat fingerprints (and, with\n"
        "--max-regress, total wall clock) against a baseline.\n"
        "--shards N runs the fig cells sharded (docs/PARALLEL.md);\n"
        "fingerprints must not move, so a --check against a\n"
        "single-shard baseline doubles as the determinism gate.\n",
        argv0);
    return 64;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "BENCH_10.json";
    std::string checkPath;
    double maxRegress = -1;
    double scale = 0.1;
    int shards = 1;
    bool microOnly = false, figOnly = false, quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // Strict flag values: a malformed one is a usage error.
        auto ok = [](const std::string &bad) {
            if (!bad.empty())
                std::fprintf(stderr, "%s\n", bad.c_str());
            return bad.empty();
        };
        if (a == "--out") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            outPath = v;
        } else if (a == "--check") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            checkPath = v;
        } else if (a == "--max-regress" || a == "--scale") {
            const char *v = next();
            if (!v ||
                !ok(parseReal(a, v, 0,
                              std::numeric_limits<double>::max(),
                              a == "--scale" ? scale : maxRegress)))
                return usage(argv[0]);
        } else if (a == "--shards") {
            SystemConfig cell = paperConfig(CoreClass::SLM);
            const char *v = next();
            if (!v || !ok(parseCount(a, v, cell.shards)) ||
                !ok(cell.validate()))
                return usage(argv[0]);
            shards = cell.shards;
        } else if (a == "--micro-only") {
            microOnly = true;
        } else if (a == "--fig-only") {
            figOnly = true;
        } else if (a == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (microOnly && figOnly)
        return usage(argv[0]);

    std::vector<CellResult> cells;
    auto report = [&](const CellResult &c) {
        cells.push_back(c);
        if (!quiet)
            std::fprintf(stderr, "  %-32s %8.3fs  %12llu ev  %s\n",
                         c.name.c_str(), c.wallSeconds,
                         static_cast<unsigned long long>(c.events),
                         fpString(c.fingerprint).c_str());
    };

    if (!figOnly) {
        report(microEventQueue());
        report(microMeshSend());
        report(microCohMsgAlloc());
        report(microMetrics(scale));
    }
    if (!microOnly) {
        const std::vector<CoreClass> classes{
            CoreClass::SLM, CoreClass::NHM, CoreClass::HSW};
        for (const std::string &name : benchmarkNames())
            for (CoreClass cls : classes)
                report(figCell(name, cls, scale, shards));
    }

    double total = 0;
    for (const CellResult &c : cells)
        total += c.wallSeconds;

    // Baseline comparison: fingerprints are a hard contract; wall
    // clock only fails with an explicit --max-regress budget (CI
    // machines vary, so the budget is the caller's call).
    double baselineWall = -1;
    int rc = 0;
    if (!checkPath.empty()) {
        Baseline base;
        if (!loadBaseline(checkPath, base)) {
            std::fprintf(stderr,
                         "wbperf: cannot read baseline %s\n",
                         checkPath.c_str());
            return 64;
        }
        baselineWall = base.totalWallSeconds;
        std::size_t matched = 0;
        for (const CellResult &c : cells) {
            const std::string *bfp = base.find(c.name);
            if (!bfp) {
                std::fprintf(stderr,
                             "wbperf: cell %s missing from "
                             "baseline (informational)\n",
                             c.name.c_str());
                continue;
            }
            ++matched;
            if (*bfp != fpString(c.fingerprint)) {
                std::fprintf(stderr,
                             "wbperf: FINGERPRINT MISMATCH %s: "
                             "baseline %s vs %s — simulated "
                             "behaviour changed\n",
                             c.name.c_str(), bfp->c_str(),
                             fpString(c.fingerprint).c_str());
                rc = 1;
            }
        }
        if (!matched) {
            std::fprintf(stderr,
                         "wbperf: no baseline cells matched\n");
            rc = 1;
        }
        if (rc == 0 && maxRegress >= 0 && baselineWall > 0 &&
            total > baselineWall * (1.0 + maxRegress)) {
            std::fprintf(stderr,
                         "wbperf: WALL REGRESSION %.3fs vs "
                         "baseline %.3fs (budget +%.0f%%)\n",
                         total, baselineWall, maxRegress * 100);
            rc = 1;
        }
        if (rc == 0 && !quiet)
            std::fprintf(stderr,
                         "wbperf: %zu fingerprints match baseline; "
                         "wall %.3fs vs %.3fs (%.2fx)\n",
                         matched, total, baselineWall,
                         total > 0 ? baselineWall / total : 0.0);
    }

    if (outPath == "-") {
        writeReport(std::cout, cells, scale, baselineWall);
    } else {
        std::ofstream f(outPath);
        if (!f) {
            std::fprintf(stderr, "wbperf: cannot write %s\n",
                         outPath.c_str());
            return 64;
        }
        writeReport(f, cells, scale, baselineWall);
    }
    return rc;
}
