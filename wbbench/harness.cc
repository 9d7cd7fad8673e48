/**
 * @file
 * wbbench_harness — the measuring half of the repository benchmark.
 *
 * One invocation runs one pass of a workload's closed batch of
 * simulations (its "cells") in a fresh process and prints one JSON
 * line with per-cell timings, simulated counts and stat
 * fingerprints. run.py (same directory) spawns the passes, judges
 * correctness against pins.json and reduces the passes to metrics.
 *
 * Everything is timed from here, around calls into the simulator's
 * public API; nothing inside src/ is instrumented. The traced pass
 * (--trace) additionally
 *   - re-registers every node's network handler with the dispatch
 *     System uses, wrapped in a steady_clock span per call,
 *   - attaches its own CheckerTap per tile (the System is built with
 *     its checker off) and replays the records into a fresh
 *     TsoChecker after the run, in the barrier's canonical
 *     (when, tile, localSeq) order,
 *   - advances the run in fixed windows and polls Core::halted() at
 *     each window end.
 * All three only observe: run.py fails the run if a traced
 * fingerprint differs from the untraced one.
 *
 *   wbbench_harness cells --workload W --seed N [--shards K]
 *                  [--trace] [--scale F] [--profiles a,b,...]
 *                  [--only I]          # just cell I of the batch
 *   wbbench_harness micro     # standalone EventQueue / MeshNetwork
 *   wbbench_harness info      # compiler, build type, asserts
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "checker/checker_tap.hh"
#include "checker/tso_checker.hh"
#include "coherence/messages.hh"
#include "network/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "system/json_writer.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"

namespace
{

using namespace wb;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------- workloads

struct CellSpec
{
    std::string name;
    std::string profile;
    CoreClass cls;
    CommitMode mode;
    double scale;
    bool checker;
    int variant = 0; //!< which of the workload's programs
};

struct WorkloadSpec
{
    std::vector<CellSpec> cells;
    int shards = 1;
    int variants = 1; //!< programs per profile and seed
};

/** canneal-2shard runs this many canneal programs (variant 0 is the
 *  profile's own at seed 0), so one program's tail does not set the
 *  workload's throughput. */
constexpr int cannealPrograms = 4;

/** The three workloads of BENCHMARK.json. @p scale < 0 keeps each
 *  workload's own scale; @p profiles empty keeps every profile. */
bool
makeWorkloadSpec(const std::string &name, double scale,
                 const std::vector<std::string> &profiles,
                 WorkloadSpec &out)
{
    const std::vector<std::string> &names =
        profiles.empty() ? benchmarkNames() : profiles;
    auto pick = [&](double own) { return scale < 0 ? own : scale; };
    if (name == "fig8-sweep") {
        for (const std::string &p : names)
            for (CoreClass cls :
                 {CoreClass::SLM, CoreClass::NHM, CoreClass::HSW})
                out.cells.push_back(
                    {"fig8." + p + "." + coreClassName(cls), p, cls,
                     CommitMode::OooWB, pick(0.1), false});
    } else if (name == "fig10-modes") {
        for (const std::string &p : names)
            for (CommitMode m : {CommitMode::InOrder,
                                 CommitMode::OooSafe,
                                 CommitMode::OooWB})
                out.cells.push_back(
                    {"fig10." + p + "." + commitModeName(m), p,
                     CoreClass::SLM, m, pick(0.1), false});
    } else if (name == "canneal-2shard") {
        for (int v = 0; v < cannealPrograms; ++v)
            out.cells.push_back(
                {"canneal.HSW.ooo-writersblock.p" + std::to_string(v),
                 "canneal", CoreClass::HSW, CommitMode::OooWB,
                 pick(1.0), true, v});
        out.shards = 2;
        out.variants = cannealPrograms;
    } else {
        return false;
    }
    return true;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** makeBenchmark with the program's seed (workload seed x variants
 *  + variant) mixed into the profile's generator seed; program seed
 *  0 is makeBenchmark itself. */
Workload
makeCellWorkload(const CellSpec &c, std::uint64_t program)
{
    if (program == 0)
        return makeBenchmark(c.profile, 16, c.scale);
    SyntheticParams p = benchmarkProfile(c.profile, c.scale);
    p.seed ^= splitmix64(program);
    return makeSynthetic(p, 16);
}

SystemConfig
cellConfig(const CellSpec &c, int shards)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    cfg.core = makeCoreConfig(c.cls);
    cfg.checker = c.checker;
    cfg.maxCycles = 400'000'000;
    cfg.setMode(c.mode);
    cfg.shards = shards;
    return cfg;
}

// ----------------------------------------------------- fingerprint

/** FNV-1a 64 over the simulated outcome, in wbperf's field order, so
 *  fig8 cells reproduce BENCH_10.json's fingerprints. A copy, because
 *  wbperf keeps its own private to tools/. */
std::uint64_t
fingerprintResults(const SimResults &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (std::uint64_t v :
         {std::uint64_t(r.completed), std::uint64_t(r.deadlocked),
          r.cycles, r.instructions, r.loads, r.stores, r.atomics,
          r.flitHops, r.messages, r.wbEntries, r.wbEncounters,
          r.uncacheableReads, r.nacksSent, r.ackReleases,
          r.lockdownsSet, r.ldtExports, r.oooCommits, r.squashBranch,
          r.squashDspec, r.squashInv, r.stallRob, r.stallLq,
          r.stallSq, r.coreCycles})
        mix(v);
    return h;
}

// ----------------------------------------------------------- trace

/** Per-node handler spans; one cache line each, written only by the
 *  shard thread that owns the node. */
struct alignas(64) NodeSpans
{
    std::int64_t l1Ns = 0;
    std::int64_t llcNs = 0;
    std::uint64_t l1Calls = 0;
    std::uint64_t llcCalls = 0;
};

/** Per-layer totals of a traced pass, summed over its cells and
 *  printed as its "layers" object (counts stay exact in a double). */
using Layers = std::map<std::string, double>;

constexpr Tick pollWindow = 512;

int
haltedCores(System &sys)
{
    int n = 0;
    for (int i = 0; i < sys.numCores(); ++i)
        n += sys.core(i).halted();
    return n;
}

/** Replay every tap into a fresh checker in barrierCommit's order.
 *  @return violations found. */
std::size_t
replayTaps(std::vector<std::unique_ptr<CheckerTap>> &taps, int cores,
           Layers &lay)
{
    struct Item
    {
        CheckerTap::Rec rec;
        int tile;
    };
    const auto t0 = Clock::now();
    std::vector<Item> all;
    for (std::size_t i = 0; i < taps.size(); ++i)
        for (const CheckerTap::Rec &r : taps[i]->take())
            all.push_back(Item{r, int(i)});
    std::sort(all.begin(), all.end(),
              [](const Item &a, const Item &b) {
                  if (a.rec.when != b.rec.when)
                      return a.rec.when < b.rec.when;
                  if (a.tile != b.tile)
                      return a.tile < b.tile;
                  return a.rec.localSeq < b.rec.localSeq;
              });
    TsoChecker checker(cores);
    for (const Item &it : all) {
        checker.setTime(it.rec.when);
        if (it.rec.isStore)
            checker.storePerformed(it.rec.core, it.rec.addr,
                                   it.rec.value, it.rec.ver);
        else
            checker.loadCompleted(it.rec.core, it.rec.addr,
                                  it.rec.ver, it.rec.forwarded);
    }
    lay["checker_replay_s"] += since(t0);
    lay["checker_events"] += double(all.size());
    lay["checker_violations"] += double(checker.violations().size());
    return checker.violations().size();
}

// ------------------------------------------------------------ cells

struct CellResult
{
    std::string why; //!< empty = passed every in-process check
    std::uint64_t fingerprint = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double wallS = 0, makeS = 0, constructS = 0, runS = 0,
           finishS = 0;
};

CellResult
runCell(const CellSpec &spec, std::uint64_t program, int shards,
        Layers *lay)
{
    CellResult c;
    const auto t0 = Clock::now();
    const Workload wl = makeCellWorkload(spec, program);
    c.makeS = since(t0);

    SystemConfig cfg = cellConfig(spec, shards);
    const bool ownTaps = lay != nullptr;
    if (ownTaps)
        cfg.checker = false;
    const auto t1 = Clock::now();
    auto sys = std::make_unique<System>(cfg, wl);
    c.constructS = since(t1);

    const int n = sys->numCores();
    std::vector<NodeSpans> spans(ownTaps ? std::size_t(n) : 0);
    std::vector<std::unique_ptr<CheckerTap>> taps;
    if (ownTaps) {
        for (int i = 0; i < n; ++i) {
            L1Controller *l1 = &sys->l1(i);
            LLCBank *llc = &sys->llc(i);
            NodeSpans *sp = &spans[std::size_t(i)];
            // Same dispatch as System's own handler, plus a span.
            sys->network().registerNode(i, [l1, llc, sp](MsgPtr msg) {
                const auto h0 = Clock::now();
                auto *cm = static_cast<CohMsg *>(msg.get());
                const bool dir = cohToDirectory(cm->type);
                if (dir)
                    llc->handleMessage(std::move(msg));
                else
                    l1->handleMessage(std::move(msg));
                const std::int64_t ns =
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(Clock::now() - h0)
                        .count();
                if (dir) {
                    sp->llcNs += ns;
                    ++sp->llcCalls;
                } else {
                    sp->l1Ns += ns;
                    ++sp->l1Calls;
                }
            });
            taps.push_back(std::make_unique<CheckerTap>());
            taps.back()->bind(&sys->core(i).eventQueue());
            sys->l1(i).setObserver(taps.back().get());
            sys->core(i).setChecker(taps.back().get());
        }
    }

    const auto t2 = Clock::now();
    if (!ownTaps) {
        sys->runToCycle(cfg.maxCycles);
    } else {
        for (;;) {
            const Tick from = sys->cycle();
            const int h0 = haltedCores(*sys);
            const bool live = sys->runToCycle(from + pollWindow);
            const int h1 = haltedCores(*sys);
            (*lay)["halted_ticks"] +=
                0.5 * double(h0 + h1) * double(sys->cycle() - from);
            if (!live)
                break;
        }
    }
    c.runS = since(t2);
    std::int64_t runHandleNs = 0;
    for (const NodeSpans &sp : spans)
        runHandleNs += sp.l1Ns + sp.llcNs;

    const Tick endOfRun = sys->cycle();
    const auto t3 = Clock::now();
    const SimResults r = sys->finishRun();
    c.finishS = since(t3);

    c.fingerprint = fingerprintResults(r);
    c.instructions = r.instructions;
    c.cycles = r.cycles;
    std::string why;
    if (!r.completed || r.deadlocked)
        c.why = "incomplete: " + r.deadlockReason;
    else if (!sys->cleanTeardown(&why))
        c.why = "unclean teardown: " + why;
    else if (r.tsoViolations)
        c.why = std::to_string(r.tsoViolations) + " TSO violations";

    if (ownTaps) {
        Layers &L = *lay;
        // Teardown ticks only halted cores.
        L["halted_ticks"] += double(n) * double(sys->cycle() - endOfRun);
        for (const NodeSpans &sp : spans) {
            L["l1_handle_s"] += double(sp.l1Ns) * 1e-9;
            L["llc_handle_s"] += double(sp.llcNs) * 1e-9;
            L["l1_calls"] += double(sp.l1Calls);
            L["llc_calls"] += double(sp.llcCalls);
        }
        L["run_handle_s"] += double(runHandleNs) * 1e-9;
        const StatRegistry &st = sys->stats();
        const std::uint64_t misses = st.sumCounters(".misses");
        std::uint64_t oooDelivered = 0;
        for (std::uint64_t v : r.oooDelivered)
            oooDelivered += v;
        const std::pair<const char *, std::uint64_t> counts[] = {
            {"core_ticks", r.coreCycles},
            {"stall_rob", r.stallRob},
            {"stall_lq", r.stallLq},
            {"stall_sq", r.stallSq},
            {"stall_other", r.stallOther},
            {"squashed", st.sumCounters(".squashedInstrs")},
            {"ooo_commits", r.oooCommits},
            {"lockdowns", r.lockdownsSet},
            {"ldt_exports", r.ldtExports},
            {"l1_misses", misses},
            {"l1_accesses", misses + st.sumCounters(".hitsL1") +
                                st.sumCounters(".hitsL2")},
            {"tearoff_retries", st.sumCounters(".tearoffRetry")},
            {"nacks", r.nacksSent},
            {"wb_entries", r.wbEntries},
            {"wb_encounters", r.wbEncounters},
            {"deferrals", st.sumCounters(".deferrals")},
            {"messages", r.messages},
            {"flit_hops", r.flitHops},
            {"link_wait", st.sumCounters(".linkWaitCycles")},
            {"ooo_delivered", oooDelivered},
            {"events", sys->eventsExecuted()},
        };
        for (const auto &[name, v] : counts)
            L[name] += double(v);
        const std::size_t bad = replayTaps(taps, n, *lay);
        if (bad && c.why.empty())
            c.why = std::to_string(bad) + " TSO violations (replay)";
    }

    sys.reset();
    c.wallS = since(t0);
    return c;
}

long
peakRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t e = std::min(s.find(',', pos), s.size());
        if (e > pos)
            out.push_back(s.substr(pos, e - pos));
        pos = e + 1;
    }
    return out;
}

void
printLayers(const Layers &l)
{
    std::printf(",\"layers\":{");
    const char *sep = "";
    for (const auto &[name, v] : l) {
        std::printf("%s\"%s\":%.17g", sep, name.c_str(), v);
        sep = ",";
    }
    std::printf("}");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: wbbench_harness cells --workload W --seed N "
                 "[--shards K] [--trace] [--scale F] "
                 "[--profiles a,b] [--only I]\n"
                 "       wbbench_harness micro | info\n");
    return 64;
}

int
cellsMain(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    int shards = 0;
    bool trace = false;
    double scale = -1;
    int only = -1;
    std::vector<std::string> profiles;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--trace") {
            trace = true;
            continue;
        }
        if (!v)
            return usage();
        ++i;
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--shards")
            shards = std::atoi(v);
        else if (a == "--scale")
            scale = std::atof(v);
        else if (a == "--profiles")
            profiles = splitList(v);
        else if (a == "--only")
            only = std::atoi(v);
        else
            return usage();
    }
    WorkloadSpec spec;
    if (!makeWorkloadSpec(workload, scale, profiles, spec))
        return usage();
    if (shards > 0)
        spec.shards = shards;
    if (spec.shards < 1 || spec.shards > 16 ||
        only >= int(spec.cells.size()))
        return usage();
    const std::size_t total = spec.cells.size();
    if (only >= 0)
        spec.cells = {spec.cells[std::size_t(only)]};

    Layers lay;
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"shards\":%d,"
                "\"trace\":%d,\"total_cells\":%zu,\"cells\":[",
                workload.c_str(), (unsigned long long)seed,
                spec.shards, int(trace), total);
    bool first = true;
    for (const CellSpec &cs : spec.cells) {
        const std::uint64_t program =
            seed * std::uint64_t(spec.variants) +
            std::uint64_t(cs.variant);
        const CellResult c = runCell(cs, program, spec.shards,
                                     trace ? &lay : nullptr);
        std::printf("%s{\"name\":\"%s\",\"why\":\"%s\","
                    "\"fp\":\"%016llx\",\"instructions\":%llu,"
                    "\"cycles\":%llu,\"wall_s\":%.9f,\"make_s\":%.9f,"
                    "\"construct_s\":%.9f,\"run_s\":%.9f,"
                    "\"finish_s\":%.9f}",
                    first ? "" : ",", cs.name.c_str(),
                    jsonEscape(c.why).c_str(),
                    (unsigned long long)c.fingerprint,
                    (unsigned long long)c.instructions,
                    (unsigned long long)c.cycles, c.wallS, c.makeS,
                    c.constructS, c.runS, c.finishS);
        first = false;
    }
    std::printf("],\"peak_rss_kb\":%ld", peakRssKb());
    if (trace)
        printLayers(lay);
    std::printf("}\n");
    return 0;
}

/** Median ns per event of a schedule/dispatch loop with a mix of
 *  same-tick and near-future events (wbperf's micro.event_queue). */
double
eventQueueNs()
{
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        EventQueue eq;
        std::uint64_t sink = 0;
        for (int r = 0; r < 20'000; ++r) {
            for (int i = 0; i < 64; ++i)
                eq.scheduleIn(std::uint64_t(i % 7), [&sink] { ++sink; });
            eq.runUntil(eq.now() + 8);
        }
        eq.runAll();
        if (sink != eq.executed())
            return -1;
        ns.push_back(since(t0) * 1e9 / double(eq.executed()));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** Median ns per delivered message of random 5-flit sends through
 *  the 4x4 mesh (wbperf's micro.mesh_send). */
double
meshSendNs()
{
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        EventQueue eq;
        StatRegistry st;
        MeshNetwork net("net", &eq, &st, MeshConfig{});
        std::uint64_t delivered = 0;
        for (int i = 0; i < 16; ++i)
            net.registerNode(i, [&delivered](MsgPtr) { ++delivered; });
        Rng rng(3 + std::uint64_t(rep));
        const int msgs = 40'000;
        for (int i = 0; i < msgs; ++i) {
            auto m = std::make_shared<NetMsg>();
            m->src = int(rng.below(16));
            m->dst = int(rng.below(16));
            m->flits = 5;
            net.send(std::move(m), eq.now());
            if ((i & 4095) == 4095)
                net.drain(eq);
        }
        net.drain(eq);
        if (delivered != std::uint64_t(msgs))
            return -1;
        ns.push_back(since(t0) * 1e9 / double(delivered));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "cells")
        return cellsMain(argc, argv);
    if (cmd == "micro") {
        const double eq = eventQueueNs();
        const double net = meshSendNs();
        if (eq <= 0 || net <= 0) {
            std::fprintf(stderr, "micro loop lost events\n");
            return 1;
        }
        std::printf("{\"sim_ns_per_event\":%.6f,"
                    "\"net_ns_per_msg\":%.6f}\n",
                    eq, net);
        return 0;
    }
    if (cmd == "info") {
#ifdef NDEBUG
        const bool asserts = false;
#else
        const bool asserts = true;
#endif
        std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\","
                    "\"asserts\":%s}\n",
                    WBB_COMPILER, WBB_BUILD_TYPE,
                    asserts ? "true" : "false");
        return 0;
    }
    return usage();
}
