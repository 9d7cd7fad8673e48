/**
 * @file
 * Exactness of the core pipeline.
 *
 * The core's per-cycle stages (issue, commit, memIssue, frontier
 * advance) are event-driven: they skip work on cycles where nothing
 * they read has changed. That is a pure host-time optimisation, so
 * the simulated run must be bit-identical to a pipeline that rescans
 * the ROB, IQ and LQ every cycle. The goldens below hash the *full*
 * StatRegistry dump (every counter and histogram) plus the executed
 * event count, recorded from the rescanning pipeline, over a matrix
 * of commit modes, core classes and issue policies, the fence,
 * atomic and IRIW litmus tests, and squash-heavy runs with a
 * one-entry LDT.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "sim/bytes.hh"
#include "system/system.hh"
#include "workload/common.hh"
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

/** Four cores on a 2x2 mesh, checker on. */
SystemConfig
smallConfig(CommitMode mode, CoreClass cls, bool in_order_issue)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.core = makeCoreConfig(cls);
    cfg.core.inOrderIssue = in_order_issue;
    cfg.maxCycles = 20'000'000;
    cfg.setMode(mode);
    return cfg;
}

/** Contended sharing with locks: lockdowns, LDT exports, tear-offs,
 *  invalidation squashes and atomics all occur. */
Workload
contendedWorkload()
{
    SyntheticParams p;
    p.name = "contended";
    p.iterations = 60;
    p.sharedRatio = 0.5;
    p.hotRatio = 0.3;
    p.hotWords = 32;
    p.lockRatio = 0.02;
    p.seed = 7;
    return makeSynthetic(p, 4);
}

/** A few hot words, store-heavy: invalidations hit M-speculative
 *  loads constantly, so the squash-and-re-execute core squashes. */
Workload
squashHeavyWorkload()
{
    SyntheticParams p;
    p.name = "squash-heavy";
    p.iterations = 60;
    p.memRatio = 0.5;
    p.storeRatio = 0.4;
    p.sharedRatio = 0.7;
    p.hotRatio = 0.7;
    p.hotWords = 8;
    p.chainRatio = 0.4;
    p.seed = 11;
    return makeSynthetic(p, 4);
}

/** A store whose address comes from a load that keeps missing (a
 *  neighbour writes the pointer's line every iteration), followed
 *  by a load of the same word: memory-dependence squashes. */
Workload
dspecWorkload(int iterations)
{
    Workload wl;
    wl.name = "dspec";
    const auto cell = [](int t) {
        return std::int64_t(layout::sharedBase) + 0x1000 * t;
    };
    for (int t = 0; t < 4; ++t) {
        ProgramBuilder b;
        b.li(1, cell(t));          // pointer cell
        b.li(2, cell(t) + 0x800);  // the word it points at
        b.li(3, iterations);
        b.li(6, 1);
        b.li(7, cell((t + 1) % 4) + 8); // neighbour's pointer line
        b.li(8, 0);
        const auto loop = b.newLabel();
        b.bind(loop);
        b.ld(4, 1);
        b.st(4, 6);  // address unknown until the pointer returns
        b.ld(5, 2);  // same word: squashed if it performed early
        b.add(6, 6, 5);
        b.st(7, 6);  // invalidate the neighbour's pointer line
        b.addi(3, 3, -1);
        b.bne(3, 8, loop);
        b.halt();
        wl.threads.push_back(b.take());
        wl.initMem.emplace_back(Addr(cell(t)), Addr(cell(t) + 0x800));
    }
    return wl;
}

/** Four cores hammer one counter with amoadd and read each other's
 *  slots in between: atomics performing at the ROB head, loads
 *  younger than a pending atomic, and lockdowns racing them. */
Workload
atomicLitmus(int iterations)
{
    Workload wl;
    wl.name = "atomic-litmus";
    for (int t = 0; t < 4; ++t) {
        ProgramBuilder b;
        b.li(1, std::int64_t(layout::sharedBase)); // counter
        b.li(2, 1);
        b.li(5, std::int64_t(layout::sharedBase) + 64 * (t + 1));
        b.li(6, iterations);
        b.li(8, 0);
        const auto loop = b.newLabel();
        b.bind(loop);
        b.amoadd(3, 1, 2);
        b.ld(4, 1, 64 * (((t + 1) % 4) + 1));
        b.st(5, 3);
        b.ld(7, 1);
        b.add(9, 4, 7);
        b.addi(6, 6, -1);
        b.bne(6, 8, loop);
        b.halt();
        wl.threads.push_back(b.take());
    }
    return wl;
}

/** One golden case: a named (workload, config) pair. */
struct Case
{
    std::string label;
    Workload wl;
    SystemConfig cfg;
};

std::vector<Case>
matrixCases()
{
    std::vector<Case> out;
    const Workload wl = contendedWorkload();
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::OooSafe,
          CommitMode::OooWB, CommitMode::OooUnsafe})
        for (CoreClass cls : {CoreClass::SLM, CoreClass::HSW})
            for (bool ioi : {false, true}) {
                std::string label = std::string(commitModeName(mode)) +
                                    "/" + coreClassName(cls) +
                                    (ioi ? "/in-order-issue" : "");
                out.push_back(
                    {std::move(label), wl, smallConfig(mode, cls, ioi)});
            }
    return out;
}

/** Squash-heavy one-entry-LDT configs. */
std::vector<Case>
squashCases()
{
    std::vector<Case> out;
    const Workload wl = squashHeavyWorkload();
    for (CommitMode mode : {CommitMode::OooSafe, CommitMode::OooWB})
        for (CoreClass cls : {CoreClass::SLM, CoreClass::HSW}) {
            SystemConfig cfg = smallConfig(mode, cls, false);
            cfg.core.ldtSize = 1;
            out.push_back({std::string("squash/") + commitModeName(mode) +
                               "/" + coreClassName(cls) + "/ldt1",
                           wl, cfg});
        }
    const Workload dspec = dspecWorkload(150);
    for (CommitMode mode : {CommitMode::OooSafe, CommitMode::OooWB}) {
        SystemConfig cfg = smallConfig(mode, CoreClass::HSW, false);
        cfg.core.ldtSize = 1;
        out.push_back(
            {std::string("dspec/") + commitModeName(mode) + "/HSW/ldt1",
             dspec, cfg});
    }
    return out;
}

std::vector<Case>
litmusCases()
{
    std::vector<Case> out;
    for (CommitMode mode : {CommitMode::OooSafe, CommitMode::OooWB}) {
        const SystemConfig cfg =
            smallConfig(mode, CoreClass::HSW, false);
        const std::string m = commitModeName(mode);
        out.push_back({"fence/" + m,
                       makeLitmus(LitmusKind::StoreBufferFenced, 300),
                       cfg});
        out.push_back({"atomic/" + m, atomicLitmus(150), cfg});
        out.push_back(
            {"iriw/" + m, makeLitmus(LitmusKind::Iriw, 300), cfg});
    }
    return out;
}

/** FNV-1a of the full stats dump plus the executed event count. */
std::uint64_t
runHash(const Case &c)
{
    System sys(c.cfg, c.wl);
    const SimResults r = sys.run();
    EXPECT_TRUE(r.completed) << c.label;
    std::ostringstream os;
    sys.stats().dump(os);
    os << "events " << sys.eventsExecuted() << "\n";
    return fnv1a64(os.str());
}

struct Golden
{
    const char *label;
    std::uint64_t hash;
};

void
expectGoldens(const std::vector<Case> &cases,
              const std::vector<Golden> &goldens)
{
    ASSERT_EQ(cases.size(), goldens.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        ASSERT_EQ(cases[i].label, goldens[i].label);
        const std::uint64_t h = runHash(cases[i]);
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(h));
        EXPECT_EQ(h, goldens[i].hash)
            << cases[i].label << ": stats dump hash " << buf;
    }
}

} // namespace

TEST(CoreExactness, ModeClassIssueMatrix)
{
    expectGoldens(matrixCases(), {
        {"in-order/SLM", 0xc7d56559a77de5e6ULL},
        {"in-order/SLM/in-order-issue", 0x1080b72dc63a676bULL},
        {"in-order/HSW", 0x3f260860b6873eb3ULL},
        {"in-order/HSW/in-order-issue", 0xba3cab4573d06386ULL},
        {"ooo-safe/SLM", 0xb0f6f2ed38217734ULL},
        {"ooo-safe/SLM/in-order-issue", 0xe1740995eae0b788ULL},
        {"ooo-safe/HSW", 0x6d2728c85341eaf4ULL},
        {"ooo-safe/HSW/in-order-issue", 0xb8324f5a05de6a4fULL},
        {"ooo-writersblock/SLM", 0x16c088f2b1950f7bULL},
        {"ooo-writersblock/SLM/in-order-issue", 0x87d0045c26df9e7fULL},
        {"ooo-writersblock/HSW", 0xd9a4f1d8d8f5786eULL},
        {"ooo-writersblock/HSW/in-order-issue", 0x69c771f2898760e6ULL},
        {"ooo-unsafe/SLM", 0x9eb21eb6cba23987ULL},
        {"ooo-unsafe/SLM/in-order-issue", 0x8b375918b3757862ULL},
        {"ooo-unsafe/HSW", 0x798ac29273d6454dULL},
        {"ooo-unsafe/HSW/in-order-issue", 0x38bee6776c705251ULL},
    });
}

TEST(CoreExactness, FenceAtomicIriwLitmus)
{
    expectGoldens(litmusCases(), {
        {"fence/ooo-safe", 0xbe57a903cbc4bd19ULL},
        {"atomic/ooo-safe", 0x10713cc00164346bULL},
        {"iriw/ooo-safe", 0x783f139499df9076ULL},
        {"fence/ooo-writersblock", 0x8c3f5cb82ae7619bULL},
        {"atomic/ooo-writersblock", 0xaaa198c622fb446eULL},
        {"iriw/ooo-writersblock", 0x07caa699632e4935ULL},
    });
}

TEST(CoreExactness, SquashHeavyOneEntryLdt)
{
    expectGoldens(squashCases(), {
        {"squash/ooo-safe/SLM/ldt1", 0x5b5256314fb049a1ULL},
        {"squash/ooo-safe/HSW/ldt1", 0x44c60b0f9d4cc97cULL},
        {"squash/ooo-writersblock/SLM/ldt1", 0xf9b49a20486e6740ULL},
        {"squash/ooo-writersblock/HSW/ldt1", 0x92d4b7afebec28ffULL},
        {"dspec/ooo-safe/HSW/ldt1", 0x3efb4e90aa213268ULL},
        {"dspec/ooo-writersblock/HSW/ldt1", 0x6de17a353103d4bcULL},
    });
}

// Drive the squash-heavy and litmus configs one cycle at a time and
// recompute every core's event-driven bookkeeping by brute force
// after each.
TEST(CoreExactness, BookkeepingMatchesBruteForceEveryCycle)
{
    std::vector<Case> cases = squashCases();
    for (Case &c : litmusCases())
        cases.push_back(std::move(c));
    for (const Case &c : cases) {
        System sys(c.cfg, c.wl);
        std::string bad;
        while (bad.empty() && sys.runToCycle(sys.cycle() + 1))
            for (int i = 0; i < sys.numCores() && bad.empty(); ++i) {
                bad = sys.core(i).checkBookkeeping();
                if (!bad.empty())
                    bad = "core " + std::to_string(i) + " at cycle " +
                          std::to_string(sys.cycle()) + ": " + bad;
            }
        EXPECT_EQ(bad, "") << c.label;
        EXPECT_TRUE(sys.finishRun().completed) << c.label;
    }
}

} // namespace wb
