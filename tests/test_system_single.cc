/**
 * @file
 * Single-core end-to-end tests: the full system (core + caches +
 * directory + network) must produce the same architectural results
 * as the functional reference simulator.
 */

#include <gtest/gtest.h>

#include "isa/func_sim.hh"
#include "system/system.hh"
#include "workload/common.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

SystemConfig
smallConfig(int cores = 1)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.maxCycles = 5'000'000;
    cfg.setMode(CommitMode::InOrder);
    return cfg;
}

} // namespace

TEST(SystemSingle, ArithmeticLoop)
{
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 100);
    b.li(3, 0);
    auto loop = b.newLabel();
    b.bind(loop);
    b.add(3, 3, 1);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    Workload wl;
    wl.name = "arith";
    wl.threads.push_back(b.take());

    System sys(smallConfig(), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed) << "cycles=" << r.cycles;
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(sys.core(0).regValue(3), 4950u);
    EXPECT_EQ(r.tsoViolations, 0u);
}

TEST(SystemSingle, StoreLoadRoundTrip)
{
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));
    b.li(2, 1234);
    b.st(1, 2);
    b.ld(3, 1);           // forwarded or from cache
    b.st(1, 3, 8);        // [base+8] = r3
    b.ld(4, 1, 8);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    System sys(smallConfig(), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(sys.core(0).regValue(4), 1234u);
    // Stores must have drained to the cache; final memory is only
    // updated after writeback, so check through the cache hierarchy:
    EXPECT_TRUE(sys.l1(0).lineCached(lineOf(layout::sharedBase)));
}

TEST(SystemSingle, BranchHeavyLoopMatchesReference)
{
    // Collatz-ish data-dependent loop: lots of mispredicts.
    ProgramBuilder b;
    b.li(1, 27);  // n
    b.li(2, 0);   // steps
    b.li(3, 1);
    b.li(4, 3);
    auto loop = b.newLabel();
    auto even = b.newLabel();
    auto cont = b.newLabel();
    b.bind(loop);
    b.andi(5, 1, 1);
    b.beq(5, 0, even);
    b.mul(1, 1, 4);   // n = 3n + 1
    b.addi(1, 1, 1);
    b.jmp(cont);
    b.bind(even);
    // n = n / 2 via repeated subtraction is too slow; emulate with
    // shift-free trick: multiply by inverse is not available, so we
    // just subtract half by masking: use n = n - ((n+1) & ~1)/2...
    // Simpler: track parity only: n = n - 1 when even? That changes
    // the sequence; instead use n = (n >> 1) via andi trick is not
    // expressible. Use a different data-dependent loop instead:
    b.addi(1, 1, -2); // even: n -= 2
    b.bind(cont);
    b.addi(2, 2, 1);
    b.blt(4, 1, loop); // while (n > 3)
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());

    FuncSim fs(wl);
    ASSERT_TRUE(fs.run());

    System sys(smallConfig(), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(sys.core(0).regValue(1), fs.readReg(0, 1));
    EXPECT_EQ(sys.core(0).regValue(2), fs.readReg(0, 2));
}

TEST(SystemSingle, SyntheticMatchesReferenceAllModes)
{
    SyntheticParams p;
    p.iterations = 30;
    p.bodyOps = 30;
    p.privateWords = 512;
    p.sharedWords = 512;
    p.seed = 99;
    Workload wl = makeSynthetic(p, 1);

    FuncSim fs(wl);
    ASSERT_TRUE(fs.run());

    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::OooSafe,
          CommitMode::OooWB}) {
        SystemConfig cfg = smallConfig();
        cfg.setMode(mode);
        System sys(cfg, wl);
        SimResults r = sys.run();
        ASSERT_TRUE(r.completed)
            << commitModeName(mode) << " cycles=" << r.cycles;
        EXPECT_EQ(r.tsoViolations, 0u) << commitModeName(mode);
        // Architectural registers must match the reference.
        for (Reg reg = 1; reg < 16; ++reg)
            EXPECT_EQ(sys.core(0).regValue(reg), fs.readReg(0, reg))
                << "mode " << commitModeName(mode) << " reg "
                << int(reg);
    }
}

TEST(SystemSingle, OooCommitFasterThanInOrderOnMissChain)
{
    // Independent loads over a large array: misses block the ROB
    // head in-order but not with OoO commit.
    SyntheticParams p;
    p.iterations = 60;
    p.bodyOps = 30;
    p.privateWords = 1 << 16; // 512KB: blows private caches
    p.sharedWords = 512;
    p.memRatio = 0.5;
    p.storeRatio = 0.1;
    p.sharedRatio = 0.0;
    p.chainRatio = 0.0;
    p.lockRatio = 0.0;
    p.branchRatio = 0.0;
    p.seed = 7;
    Workload wl = makeSynthetic(p, 1);

    SystemConfig in_order = smallConfig();
    in_order.setMode(CommitMode::InOrder);
    System s1(in_order, wl);
    SimResults r1 = s1.run();
    ASSERT_TRUE(r1.completed);

    SystemConfig ooo = smallConfig();
    ooo.setMode(CommitMode::OooWB);
    System s2(ooo, wl);
    SimResults r2 = s2.run();
    ASSERT_TRUE(r2.completed);

    EXPECT_LT(r2.cycles, r1.cycles);
}

} // namespace wb
