/**
 * @file
 * The paper's first motivating use case (Section 1): a stall-on-use,
 * in-order-issue core that continues executing past a load miss —
 * DEC Alpha 21164 (EV5) style early commit of loads (ECL). Such a
 * core has no checkpoint to roll back to, so under TSO it either
 * squashes reordered loads on invalidation (needing replay
 * machinery) or — with lockdowns + WritersBlock — simply never lets
 * the reordering be seen.
 *
 * This demo runs a racy shared workload on the in-order-issue core
 * in both flavours and shows that the lockdown flavour eliminates
 * every consistency squash at identical correctness.
 *
 *   $ ./ecl_inorder
 */

#include <cstdio>

#include "system/system.hh"
#include "workload/synthetic.hh"

int
main()
{
    using namespace wb;

    SyntheticParams p;
    p.name = "ecl-demo";
    p.iterations = 200;
    p.privateWords = 4096;
    p.sharedWords = 1024;
    p.sharedRatio = 0.30;
    p.storeRatio = 0.35;
    p.hotRatio = 0.25;
    p.hotWords = 32;
    p.seed = 60;
    Workload wl = makeSynthetic(p, 8);

    std::printf("EV5-style stall-on-use in-order cores, 8 threads, "
                "racy shared data\n\n");
    std::printf("%-34s %12s %12s %12s %8s\n", "flavour", "cycles",
                "inv-squashes", "wb-delays", "tso");

    struct Flavour
    {
        const char *name;
        bool lockdown;
    } flavours[] = {
        {"squash-and-re-execute (baseline)", false},
        {"lockdowns + WritersBlock", true},
    };

    for (const Flavour &f : flavours) {
        SystemConfig cfg;
        cfg.numCores = 8;
        cfg.setMode(CommitMode::InOrder);
        cfg.core.inOrderIssue = true;
        cfg.core.lockdown = f.lockdown;
        cfg.mem.writersBlock = f.lockdown;
        System sys(cfg, wl);
        SimResults r = sys.run();
        std::printf("%-34s %12llu %12llu %12llu %8s\n", f.name,
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.squashInv),
                    static_cast<unsigned long long>(r.wbEntries),
                    (r.completed && r.tsoViolations == 0) ? "ok"
                                                          : "BAD");
    }
    std::printf("\nthe lockdown core never squashes for "
                "consistency: reordered (hit-under-miss) loads\n"
                "bind irrevocably and the coherence layer hides "
                "the reordering instead.\n");
    return 0;
}
