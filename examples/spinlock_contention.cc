/**
 * @file
 * Spinlock contention scenario: eight cores hammer four
 * lock-protected shared counters. Exercises atomics (which fence
 * lockdowns, Section 3.7 of the paper), store-buffer ordering, and
 * the invalidation storm of a contended line — then verifies that
 * not a single increment was lost, in every commit mode.
 *
 *   $ ./spinlock_contention
 */

#include <cstdio>

#include "system/system.hh"
#include "workload/common.hh"

namespace
{

wb::Program
makeThread(int iters)
{
    using namespace wb;
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, iters);
    b.li(3, std::int64_t(layout::lockBase));
    b.li(4, std::int64_t(layout::sharedBase));
    b.li(5, 1);
    auto loop = b.newLabel();
    b.bind(loop);
    b.andi(6, 1, 3); // lock index = i & 3
    b.li(7, lineBytes);
    b.mul(6, 6, 7);
    b.add(8, 3, 6); // &lock
    b.add(9, 4, 6); // &counter
    emitLockAcquire(b, 8, 10, 5);
    b.ld(11, 9);
    b.addi(11, 11, 1);
    b.st(9, 11);
    emitLockRelease(b, 8);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    return b.take();
}

} // namespace

int
main()
{
    using namespace wb;
    constexpr int kThreads = 8;
    constexpr int kIters = 400;

    Workload wl;
    wl.name = "spinlock-contention";
    for (int t = 0; t < kThreads; ++t)
        wl.threads.push_back(makeThread(kIters));

    std::printf("%d threads x %d lock-protected increments over 4 "
                "counters\n\n",
                kThreads, kIters);
    std::printf("%-18s %12s %10s %12s %8s\n", "mode", "cycles",
                "atomics", "inv-squash", "sum");

    bool all_ok = true;
    for (CommitMode mode : {CommitMode::InOrder, CommitMode::OooSafe,
                            CommitMode::OooWB}) {
        SystemConfig cfg;
        cfg.numCores = kThreads;
        cfg.setMode(mode);
        System sys(cfg, wl);
        SimResults r = sys.run();
        std::uint64_t sum = 0;
        for (int c = 0; c < 4; ++c)
            sum += sys.peekCoherent(layout::sharedBase +
                                    Addr(c) * lineBytes);
        const bool ok = r.completed && r.tsoViolations == 0 &&
                        sum == std::uint64_t(kThreads) * kIters;
        all_ok = all_ok && ok;
        std::printf("%-18s %12llu %10llu %12llu %8llu %s\n",
                    commitModeName(mode),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.atomics),
                    static_cast<unsigned long long>(r.squashInv),
                    static_cast<unsigned long long>(sum),
                    ok ? "exact" : "LOST UPDATES!");
    }
    std::printf("\nevery mode preserved mutual exclusion: %s\n",
                all_ok ? "yes" : "NO");
    return all_ok ? 0 : 1;
}
