/**
 * @file
 * Tables 1-3 reproduction: run the paper's litmus races on the full
 * machine and classify every observed outcome against the legal TSO
 * interleavings of Table 2.
 *
 *   paper: Table 2 lists five legal interleavings; the loaded value
 *   pairs they permit are {old,old}, {old,new}, {new,new}. The
 *   illegal interleaving (6) — {new,old} — must NEVER be observed
 *   with in-order commit, safe OoO commit, or OoO+WritersBlock; the
 *   deliberately unsafe commit mode is run as a control and *does*
 *   produce it.
 */

#include <cstdio>

#include "bench_common.hh"
#include "workload/litmus.hh"

namespace
{

using namespace wb;

struct Row
{
    const char *mode;
    OutcomeCounts outcomes;
    SimResults results;
};

Row
runOne(LitmusKind kind, CommitMode mode, int iters)
{
    Workload wl = makeLitmus(kind, iters);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.checker = true;
    cfg.setMode(mode);
    System sys(cfg, wl);
    Row row;
    row.mode = commitModeName(mode);
    row.results = sys.run();
    row.outcomes = countOutcomes(
        [&sys](Addr a) { return sys.peekCoherent(a); }, iters);
    return row;
}

void
printTable(LitmusKind kind, int iters, bool include_unsafe)
{
    std::printf("\n== %s (%d racing iterations) ==\n",
                litmusName(kind), iters);
    std::printf("%-18s %10s %10s %10s %12s %8s %10s\n", "mode",
                "{old,old}", "{old,new}", "{new,new}",
                "{new,old}!!", "tso-ok", "wb-delays");
    wbench::printRule(84);
    std::vector<CommitMode> modes = {CommitMode::InOrder,
                                     CommitMode::OooSafe,
                                     CommitMode::OooWB};
    if (include_unsafe)
        modes.push_back(CommitMode::OooUnsafe);
    for (CommitMode m : modes) {
        Row r = runOne(kind, m, iters);
        const int oo = r.outcomes[{0, 0}];
        const int on = r.outcomes[{0, 1}];
        const int nn = r.outcomes[{1, 1}];
        const int il = r.outcomes[{1, 0}];
        std::printf("%-18s %10d %10d %10d %12d %8s %10llu\n",
                    r.mode, oo, on, nn, il,
                    (il == 0 && r.results.tsoViolations == 0)
                        ? "yes"
                        : "NO",
                    static_cast<unsigned long long>(
                        r.results.wbEntries));
    }
}

} // namespace

int
main()
{
    const int iters = int(3000 * wbench::benchScale());
    std::printf("Litmus reproduction of Tables 1-3 "
                "(config: %s)\n",
                describeConfig(wbench::paperConfig(
                                   wb::CommitMode::OooWB))
                    .c_str());
    std::printf("columns show per-iteration {ld y, ld x} value "
                "pairs; {new,old} is interleaving (6),\n"
                "illegal in TSO. 'ooo-unsafe' is the negative "
                "control (no lockdowns, no squash).\n");

    printTable(wb::LitmusKind::Table1, iters, true);
    printTable(wb::LitmusKind::Table3, iters, false);

    // Store buffering: {old,old} is legal in TSO (and must occur,
    // or we built something stronger than TSO).
    {
        using namespace wb;
        std::printf("\n== store-buffering sanity (TSO, not SC) "
                    "==\n");
        Row r = runOne(LitmusKind::StoreBuffer,
                       CommitMode::InOrder, iters);
        const int oo = r.outcomes[{0, 0}];
        std::printf("in-order commit: {0,0} observed %d times "
                    "(> 0 proves the store->load relaxation)\n",
                    oo);
    }
    return 0;
}
