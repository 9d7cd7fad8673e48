/**
 * @file
 * System-level property tests:
 *  - data-race-free programs produce architectural state identical
 *    to the SC reference, for every commit mode, network, and core
 *    class (determinism + correctness end to end);
 *  - configuration validation and bookkeeping behave as documented;
 *  - the non-silent eviction mode remains TSO-correct under stress.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "isa/func_sim.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"
#include "workload/common.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

/** DRF workload: disjoint private regions only. */
Workload
drfWorkload(std::uint64_t seed, int threads)
{
    SyntheticParams p;
    p.iterations = 25;
    p.bodyOps = 25;
    p.privateWords = 2048;
    p.sharedRatio = 0.0;
    p.lockRatio = 0.0;
    p.seed = seed;
    return makeSynthetic(p, threads);
}

} // namespace

using DrfParam = std::tuple<CommitMode, NetworkKind, CoreClass>;

class DrfEquivalence : public ::testing::TestWithParam<DrfParam>
{};

TEST_P(DrfEquivalence, ArchStateMatchesReference)
{
    const auto [mode, net, cls] = GetParam();
    Workload wl = drfWorkload(31, 4);
    FuncSim fs(wl);
    ASSERT_TRUE(fs.run());

    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.core = makeCoreConfig(cls);
    cfg.network = net;
    cfg.ideal.jitter = 9;
    cfg.maxCycles = 20'000'000;
    cfg.setMode(mode);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.tsoViolations, 0u);
    for (int t = 0; t < 4; ++t)
        for (Reg reg = 1; reg < 16; ++reg)
            EXPECT_EQ(sys.core(t).regValue(reg),
                      fs.readReg(t, reg))
                << "thread " << t << " reg " << int(reg);

    // End-of-run hygiene: the in-flight ledger must be empty and no
    // MSHR or transient directory entry may outlive the run.
    EXPECT_FALSE(r.deadlocked) << r.deadlockReason;
    EXPECT_EQ(r.leakedMessages, 0u);
    EXPECT_EQ(sys.network().inFlight(), 0u);
    std::string why;
    EXPECT_TRUE(sys.cleanTeardown(&why)) << why;
}

namespace
{

std::string
drfName(const ::testing::TestParamInfo<DrfParam> &info)
{
    std::string n = commitModeName(std::get<0>(info.param));
    for (auto &c : n)
        if (c == '-')
            c = '_';
    n += std::get<1>(info.param) == NetworkKind::Mesh ? "_mesh"
                                                      : "_ideal";
    n += std::string("_") +
         coreClassName(std::get<2>(info.param));
    return n;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, DrfEquivalence,
    ::testing::Combine(
        ::testing::Values(CommitMode::InOrder, CommitMode::OooSafe,
                          CommitMode::OooWB),
        ::testing::Values(NetworkKind::Mesh, NetworkKind::Ideal),
        ::testing::Values(CoreClass::SLM, CoreClass::HSW)),
    drfName);

TEST(SystemMulti, DeterministicAcrossRuns)
{
    Workload wl = makeBenchmark("fmm", 4, 0.05);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.setMode(CommitMode::OooWB);
    System a(cfg, wl);
    System b(cfg, wl);
    SimResults ra = a.run();
    SimResults rb = b.run();
    ASSERT_TRUE(ra.completed);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.flitHops, rb.flitHops);
    EXPECT_EQ(ra.wbEntries, rb.wbEntries);
}

TEST(SystemMulti, NonSilentEvictionsStayCorrect)
{
    SyntheticParams p;
    p.iterations = 50;
    p.privateWords = 2048;
    // Shared footprint must exceed the 4 KiB L1 below so S-state
    // victims are picked regardless of commit-mode interleaving.
    p.sharedWords = 2048;
    p.sharedRatio = 0.5;
    p.storeRatio = 0.35;
    p.hotRatio = 0.3;
    p.hotWords = 32;
    p.seed = 17;
    Workload wl = makeSynthetic(p, 8);
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::OooSafe,
          CommitMode::OooWB}) {
        SystemConfig cfg;
        cfg.numCores = 8;
        cfg.network = NetworkKind::Ideal;
        cfg.ideal.jitter = 8;
        cfg.mem.silentSharedEvictions = false;
        cfg.mem.l1Size = 4 * 1024;
        cfg.mem.l2Size = 8 * 1024; // force evictions
        cfg.maxCycles = 40'000'000;
        cfg.setMode(mode);
        System sys(cfg, wl);
        SimResults r = sys.run();
        ASSERT_TRUE(r.completed)
            << commitModeName(mode) << " deadlocked=" << r.deadlocked;
        EXPECT_EQ(r.tsoViolations, 0u) << commitModeName(mode);
        EXPECT_GT(sys.stats().sumCounters(".putsShared"), 0u)
            << "non-silent mode never sent a PutS";
    }
}

TEST(SystemMulti, PrefetcherStaysCorrectAndIssues)
{
    // Sequential streaming: the prefetcher must fire and the DRF
    // results must match the reference exactly.
    SyntheticParams p;
    p.iterations = 25;
    p.privateWords = 1 << 13;
    p.sharedRatio = 0.0;
    p.lockRatio = 0.0;
    p.seed = 81;
    Workload wl = makeSynthetic(p, 2);
    FuncSim fs(wl);
    ASSERT_TRUE(fs.run());

    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.prefetchNextLine = true;
    cfg.maxCycles = 20'000'000;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.tsoViolations, 0u);
    EXPECT_GT(sys.stats().sumCounters(".prefetches"), 0u);
    for (int t = 0; t < 2; ++t)
        for (Reg reg = 1; reg < 16; ++reg)
            EXPECT_EQ(sys.core(t).regValue(reg),
                      fs.readReg(t, reg));
}

TEST(SystemMulti, PrefetcherUnderContentionStaysTsoClean)
{
    SyntheticParams p;
    p.iterations = 50;
    p.privateWords = 1024;
    p.sharedWords = 256;
    p.sharedRatio = 0.35;
    p.storeRatio = 0.35;
    p.hotRatio = 0.3;
    p.hotWords = 32;
    p.seed = 82;
    Workload wl = makeSynthetic(p, 8);
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.network = NetworkKind::Ideal;
    cfg.ideal.jitter = 10;
    cfg.mem.prefetchNextLine = true;
    cfg.mem.numMshrs = 4;
    cfg.maxCycles = 40'000'000;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed) << "deadlocked=" << r.deadlocked;
    EXPECT_EQ(r.tsoViolations, 0u);
}

TEST(SystemMulti, ConfigValidation)
{
    // The one workload-dependent rule: no more threads than cores.
    Workload wl;
    wl.threads.resize(5, Program{Instr{Opcode::Halt, 0, 0, 0, 0,
                                       0}});
    SystemConfig cfg;
    cfg.numCores = 4;
    EXPECT_THROW(System(cfg, wl), std::runtime_error);

    // Every config rule stops the constructor too
    // (SystemConfig::validate(); one case per rule in test_configs).
    Workload one;
    one.threads.push_back(Program{Instr{Opcode::Halt, 0, 0, 0, 0,
                                        0}});
    SystemConfig bad_mode;
    bad_mode.core.commitMode = CommitMode::OooWB;
    bad_mode.core.lockdown = false;
    EXPECT_THROW(System(bad_mode, one), std::runtime_error);
}

TEST(SystemMulti, CoreCountFitsSharerMask)
{
    // One core past the directory sharer mask is refused outright;
    // at exactly its width every sharer bit is in use and the run
    // must stay TSO-clean.
    SystemConfig cfg;
    cfg.setMode(CommitMode::OooWB);
    cfg.numCores = LLCBank::maxCores + 1;
    EXPECT_THROW(System(cfg, makeBenchmark("water_sp", 1, 0.05)),
                 std::runtime_error);

    cfg.numCores = LLCBank::maxCores;
    System sys(cfg, makeBenchmark("water_sp", cfg.numCores, 0.02));
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed) << "deadlocked=" << r.deadlocked;
    EXPECT_EQ(r.tsoViolations, 0u);
}

TEST(SystemMulti, MaxCyclesCapsRun)
{
    // An endless spin on one core: run() must stop at maxCycles and
    // report not-completed without deadlock.
    ProgramBuilder b;
    auto loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    b.jmp(loop);
    Workload wl;
    wl.threads.push_back(b.take());
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.maxCycles = 20'000;
    System sys(cfg, wl);
    SimResults r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.deadlocked); // it commits, it's just endless
    EXPECT_GE(r.cycles, 20'000u);
}

TEST(SystemMulti, DescribeConfigMentionsKeyParams)
{
    SystemConfig cfg;
    cfg.setMode(CommitMode::OooWB);
    const std::string d = describeConfig(cfg);
    EXPECT_NE(d.find("WritersBlock"), std::string::npos);
    EXPECT_NE(d.find("ROB 32"), std::string::npos);
    EXPECT_NE(d.find("LDT 32"), std::string::npos);
    cfg.setMode(CommitMode::InOrder);
    EXPECT_NE(describeConfig(cfg).find("base directory"),
              std::string::npos);
}

TEST(SystemMulti, PeekCoherentFindsFreshestCopy)
{
    // Store on core 0 (dirty in its L1), then read via the API.
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));
    b.li(2, 5150);
    b.st(1, 2);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    SystemConfig cfg;
    cfg.numCores = 2;
    System sys(cfg, wl);
    ASSERT_TRUE(sys.run().completed);
    // The line is still dirty in core 0's cache; memory is stale.
    EXPECT_EQ(sys.peekCoherent(layout::sharedBase), 5150u);
    EXPECT_EQ(sys.memory().peek(layout::sharedBase), 0u);
}

TEST(SystemMulti, SnapshotAggregatesCounters)
{
    Workload wl = makeBenchmark("water_sp", 4, 0.05);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.loads, 0u);
    EXPECT_GT(r.stores, 0u);
    EXPECT_GT(r.messages, 0u);
    EXPECT_GT(r.flitHops, 0u);
    EXPECT_EQ(r.instructions,
              sys.stats().sumCounters(".commits"));
}

} // namespace wb
